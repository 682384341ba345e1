package qos

import (
	"maps"
	"strings"
	"testing"
)

// paperRequest is the Section 3.1 remote-surveillance request.
func paperRequest() *Request {
	return &Request{
		Service: "surveillance",
		Dims: []DimPref{
			{
				Dim: "video",
				Attrs: []AttrPref{
					{Attr: "frame_rate", Sets: []ValueSet{Span(10, 5), Span(4, 1)}},
					{Attr: "color_depth", Sets: []ValueSet{One(Int(3)), One(Int(1))}},
				},
			},
			{
				Dim: "audio",
				Attrs: []AttrPref{
					{Attr: "sampling_rate", Sets: []ValueSet{One(Int(8))}},
					{Attr: "sample_bits", Sets: []ValueSet{One(Int(8))}},
				},
			},
		},
	}
}

func TestPaperRequestValidates(t *testing.T) {
	if err := paperRequest().Validate(paperSpec()); err != nil {
		t.Fatalf("the paper's own Section 3.1 request must validate: %v", err)
	}
}

func TestRequestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Request)
		want   string
	}{
		{"no dims", func(r *Request) { r.Dims = nil }, "names no dimensions"},
		{"unknown dim", func(r *Request) { r.Dims[0].Dim = "haptics" }, "unknown dimension"},
		{"dup dim", func(r *Request) { r.Dims = append(r.Dims, r.Dims[0]) }, "duplicate dimension"},
		{"no attrs", func(r *Request) { r.Dims[0].Attrs = nil }, "lists no attributes"},
		{"unknown attr", func(r *Request) { r.Dims[0].Attrs[0].Attr = "hue" }, "unknown attribute"},
		{"dup attr", func(r *Request) { r.Dims[0].Attrs = append(r.Dims[0].Attrs, r.Dims[0].Attrs[0]) }, "duplicate attribute"},
		{"no sets", func(r *Request) { r.Dims[0].Attrs[0].Sets = nil }, "no acceptable values"},
		{"span over discrete", func(r *Request) { r.Dims[0].Attrs[1].Sets = []ValueSet{Span(1, 3)} }, "continuous span over discrete"},
		{"span outside domain", func(r *Request) { r.Dims[0].Attrs[0].Sets = []ValueSet{Span(10, 40)} }, "outside domain"},
		{"value outside domain", func(r *Request) { r.Dims[0].Attrs[1].Sets = []ValueSet{One(Int(5))} }, "not in attribute domain"},
	}
	for _, c := range cases {
		r := paperRequest()
		c.mutate(r)
		err := r.Validate(paperSpec())
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestValueSetContains(t *testing.T) {
	s := Span(10, 5)
	for v := int64(5); v <= 10; v++ {
		if !s.Contains(Int(v)) {
			t.Errorf("[10..5] should contain %d", v)
		}
	}
	if s.Contains(Int(4)) || s.Contains(Int(11)) {
		t.Error("span bounds leak")
	}
	if s.Contains(Str("x")) {
		t.Error("span contains string")
	}
	o := One(Int(3))
	if !o.Contains(Int(3)) || o.Contains(Int(1)) {
		t.Error("singleton broken")
	}
	if got := s.String(); got != "[10,...,5]" {
		t.Errorf("span string = %q", got)
	}
	if got := o.String(); got != "3" {
		t.Errorf("one string = %q", got)
	}
}

func TestRequestPreferred(t *testing.T) {
	r := paperRequest()
	pref := r.Preferred()
	want := Level{
		{Dim: "video", Attr: "frame_rate"}:    Float(10),
		{Dim: "video", Attr: "color_depth"}:   Int(3),
		{Dim: "audio", Attr: "sampling_rate"}: Int(8),
		{Dim: "audio", Attr: "sample_bits"}:   Int(8),
	}
	if !pref.Equal(want) {
		t.Errorf("Preferred = %v, want %v", pref, want)
	}
	v, ok := r.PreferredValue(AttrKey{Dim: "video", Attr: "color_depth"})
	if !ok || !v.Equal(Int(3)) {
		t.Errorf("PreferredValue(color_depth) = %v,%v", v, ok)
	}
	if _, ok := r.PreferredValue(AttrKey{Dim: "video", Attr: "nope"}); ok {
		t.Error("PreferredValue of unknown attr should report !ok")
	}
}

func TestRequestAdmits(t *testing.T) {
	r := paperRequest()
	ok := Level{
		{Dim: "video", Attr: "frame_rate"}:    Int(7),
		{Dim: "video", Attr: "color_depth"}:   Int(1),
		{Dim: "audio", Attr: "sampling_rate"}: Int(8),
		{Dim: "audio", Attr: "sample_bits"}:   Int(8),
	}
	if !r.Admits(ok) {
		t.Error("acceptable level rejected")
	}
	// Second accepted span also admits.
	ok[AttrKey{Dim: "video", Attr: "frame_rate"}] = Int(2)
	if !r.Admits(ok) {
		t.Error("second-choice span rejected")
	}
	// Value outside every accepted set.
	bad := maps.Clone(ok)
	bad[AttrKey{Dim: "video", Attr: "frame_rate"}] = Int(20)
	if r.Admits(bad) {
		t.Error("frame rate 20 accepted though user tolerates only [10..5],[4..1]")
	}
	// Missing attribute.
	missing := maps.Clone(ok)
	delete(missing, AttrKey{Dim: "audio", Attr: "sample_bits"})
	if r.Admits(missing) {
		t.Error("incomplete level admitted")
	}
	// Extra attributes are fine.
	extra := maps.Clone(ok)
	extra[AttrKey{Dim: "video", Attr: "brightness"}] = Int(1)
	if !r.Admits(extra) {
		t.Error("extra attribute should not block admission")
	}
}

// TestRequestKeysOrder: the request's attribute keys, as the ladder lays
// them out, follow importance order.
func TestRequestKeysOrder(t *testing.T) {
	ld := mustLadder(t, DefaultGridSteps)
	var ks []AttrKey
	for _, la := range ld.Attrs {
		ks = append(ks, la.Key)
	}
	want := []AttrKey{
		{Dim: "video", Attr: "frame_rate"},
		{Dim: "video", Attr: "color_depth"},
		{Dim: "audio", Attr: "sampling_rate"},
		{Dim: "audio", Attr: "sample_bits"},
	}
	if len(ks) != len(want) {
		t.Fatalf("Keys len = %d", len(ks))
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Errorf("Keys[%d] = %v, want %v (importance order)", i, ks[i], want[i])
		}
	}
}

func TestRequestEqual(t *testing.T) {
	a, b := paperRequest(), paperRequest()
	if !a.Equal(b) {
		t.Fatal("identical requests must be Equal")
	}
	b.Service = "other"
	if a.Equal(b) {
		t.Error("service difference not detected")
	}
	b = paperRequest()
	b.Dims[0].Attrs[0].Sets[0].From++
	if a.Equal(b) {
		t.Error("span endpoint difference not detected")
	}
	b = paperRequest()
	b.Dims[1].Attrs[1].Sets[0].Single = Int(99)
	if a.Equal(b) {
		t.Error("discrete value difference not detected")
	}
	b = paperRequest()
	b.Dims[0].Attrs = b.Dims[0].Attrs[:1]
	if a.Equal(b) {
		t.Error("attribute count difference not detected")
	}
}
