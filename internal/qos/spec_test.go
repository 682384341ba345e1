package qos

import (
	"maps"
	"strings"
	"testing"
)

// paperSpec reconstructs the Section 3 example used across these tests.
func paperSpec() *Spec {
	return &Spec{
		Name: "multimedia",
		Dimensions: []Dimension{
			{
				ID: "video", Name: "Video Quality",
				Attributes: []Attribute{
					{ID: "frame_rate", Domain: IntRange(1, 30)},
					{ID: "color_depth", Domain: DiscreteInts(1, 3, 8, 16, 24)},
				},
			},
			{
				ID: "audio", Name: "Audio Quality",
				Attributes: []Attribute{
					{ID: "sampling_rate", Domain: DiscreteInts(8, 16, 24, 44)},
					{ID: "sample_bits", Domain: DiscreteInts(8, 16, 24)},
				},
			},
		},
	}
}

func TestSpecValidateAccepts(t *testing.T) {
	if err := paperSpec().Validate(); err != nil {
		t.Fatalf("paper spec rejected: %v", err)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no dimensions", func(s *Spec) { s.Dimensions = nil }, "no dimensions"},
		{"dup dimension", func(s *Spec) { s.Dimensions = append(s.Dimensions, s.Dimensions[0]) }, "duplicate dimension"},
		{"empty dim id", func(s *Spec) { s.Dimensions[0].ID = "" }, "empty ID"},
		{"no attributes", func(s *Spec) { s.Dimensions[0].Attributes = nil }, "no attributes"},
		{"dup attribute", func(s *Spec) {
			s.Dimensions[0].Attributes = append(s.Dimensions[0].Attributes, s.Dimensions[0].Attributes[0])
		}, "duplicate attribute"},
		{"empty attr id", func(s *Spec) { s.Dimensions[0].Attributes[0].ID = "" }, "empty ID"},
		{"bad domain", func(s *Spec) { s.Dimensions[0].Attributes[0].Domain = Domain{Kind: Discrete} }, "no values"},
		{"dep unknown attr", func(s *Spec) {
			s.Deps = []Dependency{{Kind: DepMaxSum, A: AttrKey{"video", "nope"}, B: AttrKey{"audio", "sample_bits"}}}
		}, "unknown attribute"},
	}
	for _, c := range cases {
		s := paperSpec()
		c.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestSpecLookups(t *testing.T) {
	s := paperSpec()
	if s.Dimension("video") == nil || s.Dimension("haptics") != nil {
		t.Error("Dimension lookup broken")
	}
	if s.Attr(AttrKey{"video", "frame_rate"}) == nil {
		t.Error("Attr lookup broken")
	}
	if s.Attr(AttrKey{"video", "nope"}) != nil || s.Attr(AttrKey{"nope", "frame_rate"}) != nil {
		t.Error("Attr lookup should return nil for unknown keys")
	}
}

func TestDependencyRequires(t *testing.T) {
	dep := Dependency{
		Kind: DepRequires,
		A:    AttrKey{"video", "color_depth"}, AVal: Int(24),
		B: AttrKey{"video", "frame_rate"}, BSet: []Value{Int(10), Int(15)},
	}
	ok := Level{
		{Dim: "video", Attr: "color_depth"}: Int(24),
		{Dim: "video", Attr: "frame_rate"}:  Int(15),
	}
	if !dep.Satisfied(ok) {
		t.Error("satisfying level rejected")
	}
	bad := Level{
		{Dim: "video", Attr: "color_depth"}: Int(24),
		{Dim: "video", Attr: "frame_rate"}:  Int(30),
	}
	if dep.Satisfied(bad) {
		t.Error("violating level accepted")
	}
	// A at a non-trigger value: vacuously satisfied.
	other := Level{
		{Dim: "video", Attr: "color_depth"}: Int(8),
		{Dim: "video", Attr: "frame_rate"}:  Int(30),
	}
	if !dep.Satisfied(other) {
		t.Error("non-triggered dependency must be satisfied")
	}
	// Missing attributes: vacuous.
	if !dep.Satisfied(Level{}) {
		t.Error("incomplete level must satisfy dependency vacuously")
	}
}

func TestDependencyNumeric(t *testing.T) {
	sum := Dependency{Kind: DepMaxSum, A: AttrKey{"video", "frame_rate"}, B: AttrKey{"audio", "sampling_rate"}, Bound: 50}
	prod := Dependency{Kind: DepMaxProduct, A: AttrKey{"video", "frame_rate"}, B: AttrKey{"video", "color_depth"}, Bound: 300}
	l := Level{
		{Dim: "video", Attr: "frame_rate"}:    Int(30),
		{Dim: "video", Attr: "color_depth"}:   Int(8),
		{Dim: "audio", Attr: "sampling_rate"}: Int(16),
	}
	if !sum.Satisfied(l) { // 30+16 = 46 <= 50
		t.Error("maxsum within bound rejected")
	}
	if !prod.Satisfied(l) { // 30*8 = 240 <= 300
		t.Error("maxproduct within bound rejected")
	}
	l[AttrKey{Dim: "video", Attr: "color_depth"}] = Int(16)
	if prod.Satisfied(l) { // 480 > 300
		t.Error("maxproduct beyond bound accepted")
	}
}

func TestSpecDepsSatisfied(t *testing.T) {
	s := paperSpec()
	s.Deps = []Dependency{
		{Kind: DepMaxProduct, A: AttrKey{"video", "frame_rate"}, B: AttrKey{"video", "color_depth"}, Bound: 200},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ok, idx := s.DepsSatisfied(Level{
		{Dim: "video", Attr: "frame_rate"}:  Int(10),
		{Dim: "video", Attr: "color_depth"}: Int(24),
	})
	if ok || idx != 0 {
		t.Errorf("expected dependency 0 violated, got ok=%v idx=%d", ok, idx)
	}
	ok, idx = s.DepsSatisfied(Level{
		{Dim: "video", Attr: "frame_rate"}:  Int(10),
		{Dim: "video", Attr: "color_depth"}: Int(8),
	})
	if !ok || idx != -1 {
		t.Errorf("expected satisfied, got ok=%v idx=%d", ok, idx)
	}
}

func TestNumericDependencyOverStringRejected(t *testing.T) {
	s := paperSpec()
	s.Dimensions[0].Attributes = append(s.Dimensions[0].Attributes,
		Attribute{ID: "codec", Domain: DiscreteStrings("hq", "fast")})
	s.Deps = []Dependency{
		{Kind: DepMaxSum, A: AttrKey{"video", "codec"}, B: AttrKey{"video", "frame_rate"}, Bound: 10},
	}
	if err := s.Validate(); err == nil {
		t.Error("numeric dependency over string attribute accepted")
	}
}

func TestLevelCloneEqualString(t *testing.T) {
	l := Level{
		{Dim: "video", Attr: "frame_rate"}:  Int(10),
		{Dim: "video", Attr: "color_depth"}: Int(8),
	}
	c := maps.Clone(l)
	if !l.Equal(c) {
		t.Error("clone not equal")
	}
	c[AttrKey{Dim: "video", Attr: "frame_rate"}] = Int(5)
	if l.Equal(c) {
		t.Error("mutating clone affected equality")
	}
	if l[AttrKey{Dim: "video", Attr: "frame_rate"}] != Int(10) {
		t.Error("clone aliases original")
	}
	want := "{video/color_depth=8, video/frame_rate=10}"
	if got := l.String(); got != want {
		t.Errorf("String = %q, want %q (sorted deterministic)", got, want)
	}
	if l.Equal(Level{}) {
		t.Error("different sizes must not be equal")
	}
}

func TestAttrKeyString(t *testing.T) {
	if (AttrKey{Dim: "a", Attr: "b"}).String() != "a/b" {
		t.Error("AttrKey string format")
	}
}
