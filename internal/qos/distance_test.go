package qos

import (
	"math"
	"math/rand"
	"testing"
)

func mustEval(t *testing.T) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(paperSpec(), paperRequest())
	if err != nil {
		t.Fatalf("NewEvaluator: %v", err)
	}
	return e
}

func admissibleLevel(fr int64, cd int64) Level {
	return Level{
		{Dim: "video", Attr: "frame_rate"}:    Int(fr),
		{Dim: "video", Attr: "color_depth"}:   Int(cd),
		{Dim: "audio", Attr: "sampling_rate"}: Int(8),
		{Dim: "audio", Attr: "sample_bits"}:   Int(8),
	}
}

func TestDistanceZeroAtPreferred(t *testing.T) {
	e := mustEval(t)
	d, err := e.Distance(admissibleLevel(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("distance at preferred level = %v, want 0", d)
	}
}

func TestDistanceHandComputed(t *testing.T) {
	// Proposal: frame_rate 5 (pref 10), color_depth 1 (pref 3), audio at
	// preference. Per eq. 5:
	//   dif(frame_rate) = |5-10| / (30-1)   = 5/29
	//   dif(color_depth)= |idx(1)-idx(3)|/4 = 1/4
	// Weights: video w_k=1 (k=1,n=2); frame_rate w_i=1, color_depth
	// w_i=0.5. Audio terms are 0.
	// distance = 1*(1*5/29 + 0.5*0.25) = 5/29 + 0.125
	e := mustEval(t)
	d, err := e.Distance(admissibleLevel(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := 5.0/29.0 + 0.125
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("distance = %v, want %v (hand computed from eqs. 2-5)", d, want)
	}
}

func TestDistanceDimensionWeighting(t *testing.T) {
	// The same normalized deviation must cost more in a more important
	// dimension. Build a request where video and audio each have one
	// attribute with two choices of identical normalized step.
	spec := &Spec{
		Name: "w",
		Dimensions: []Dimension{
			{ID: "video", Attributes: []Attribute{{ID: "q", Domain: DiscreteInts(0, 1, 2, 3, 4)}}},
			{ID: "audio", Attributes: []Attribute{{ID: "q", Domain: DiscreteInts(0, 1, 2, 3, 4)}}},
		},
	}
	req := &Request{
		Service: "w",
		Dims: []DimPref{
			{Dim: "video", Attrs: []AttrPref{{Attr: "q", Sets: []ValueSet{One(Int(4)), One(Int(2))}}}},
			{Dim: "audio", Attrs: []AttrPref{{Attr: "q", Sets: []ValueSet{One(Int(4)), One(Int(2))}}}},
		},
	}
	e, err := NewEvaluator(spec, req)
	if err != nil {
		t.Fatal(err)
	}
	vKey := AttrKey{Dim: "video", Attr: "q"}
	aKey := AttrKey{Dim: "audio", Attr: "q"}
	pref := Level{vKey: Int(4), aKey: Int(4)}
	degradeVideo := Level{vKey: Int(2), aKey: Int(4)}
	degradeAudio := Level{vKey: Int(4), aKey: Int(2)}
	_ = pref
	dv, err := e.Distance(degradeVideo)
	if err != nil {
		t.Fatal(err)
	}
	da, err := e.Distance(degradeAudio)
	if err != nil {
		t.Fatal(err)
	}
	if !(dv > da) {
		t.Errorf("degrading the more important dimension must cost more: video %v vs audio %v", dv, da)
	}
	if math.Abs(dv-2*da) > 1e-12 {
		t.Errorf("with n=2, w1/w2 = 2: dv=%v, da=%v", dv, da)
	}
}

func TestDistanceRejectsInadmissible(t *testing.T) {
	e := mustEval(t)
	// frame_rate 20 is outside the accepted spans.
	if _, err := e.Distance(admissibleLevel(20, 3)); err == nil {
		t.Error("inadmissible proposal evaluated; the paper only evaluates admissible proposals")
	}
	// Missing attribute.
	l := admissibleLevel(10, 3)
	delete(l, AttrKey{Dim: "audio", Attr: "sample_bits"})
	if _, err := e.Distance(l); err == nil {
		t.Error("incomplete proposal evaluated")
	}
}

func TestDistanceRejectsDependencyViolation(t *testing.T) {
	spec := paperSpec()
	spec.Deps = []Dependency{
		{Kind: DepMaxProduct, A: AttrKey{"video", "frame_rate"}, B: AttrKey{"video", "color_depth"}, Bound: 20},
	}
	e, err := NewEvaluator(spec, paperRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Distance(admissibleLevel(10, 3)); err == nil {
		t.Error("10*3=30 > 20 must violate the dependency")
	}
	if _, err := e.Distance(admissibleLevel(6, 3)); err != nil {
		t.Errorf("6*3=18 <= 20 must pass: %v", err)
	}
}

// TestSignedDistance: the paper's eq. 5 is signed, so a proposal on
// either side of the preference would score with opposite signs; the
// evaluator takes the absolute difference, so both score the same.
func TestSignedDistance(t *testing.T) {
	e := mustEval(t)
	key := AttrKey{Dim: "video", Attr: "frame_rate"}
	below, err := e.Dif(key, Int(5), Int(10))
	if err != nil {
		t.Fatal(err)
	}
	above, err := e.Dif(key, Int(15), Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if below <= 0 || below != above {
		t.Errorf("dif below = %v, above = %v; want the same positive value", below, above)
	}
}

func TestDifDiscreteUsesQualityIndex(t *testing.T) {
	e := mustEval(t)
	// color_depth domain {1,3,8,16,24}: idx(24)=4, idx(8)=2, width 4.
	d, err := e.Dif(AttrKey{Dim: "video", Attr: "color_depth"}, Int(8), Int(24))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("dif = %v, want 0.5 (|2-4|/4)", d)
	}
	// Outside the domain errors.
	if _, err := e.Dif(AttrKey{Dim: "video", Attr: "color_depth"}, Int(9), Int(24)); err == nil {
		t.Error("value outside discrete domain accepted")
	}
	if _, err := e.Dif(AttrKey{Dim: "video", Attr: "nope"}, Int(9), Int(24)); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestDifDegenerateDomainIsZero(t *testing.T) {
	spec := &Spec{Name: "deg", Dimensions: []Dimension{
		{ID: "d", Attributes: []Attribute{{ID: "a", Domain: DiscreteInts(7)}}},
	}}
	req := &Request{Service: "deg", Dims: []DimPref{
		{Dim: "d", Attrs: []AttrPref{{Attr: "a", Sets: []ValueSet{One(Int(7))}}}},
	}}
	e, err := NewEvaluator(spec, req)
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Dif(AttrKey{Dim: "d", Attr: "a"}, Int(7), Int(7))
	if err != nil || d != 0 {
		t.Errorf("degenerate domain dif = %v, %v", d, err)
	}
}

func TestMaxDistanceBoundsAllAdmissible(t *testing.T) {
	e := mustEval(t)
	ld, err := BuildLadder(paperSpec(), paperRequest(), 6)
	if err != nil {
		t.Fatal(err)
	}
	maxD := e.MaxDistance()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a := ld.NewAssignment()
		for j := range a {
			a[j] = rng.Intn(len(ld.Attrs[j].Choices))
		}
		d, err := e.Distance(ld.Level(a))
		if err != nil {
			t.Fatal(err)
		}
		if d < 0 || d > maxD+1e-9 {
			t.Fatalf("distance %v outside [0, %v]", d, maxD)
		}
	}
}

func TestUtilityMapping(t *testing.T) {
	e := mustEval(t)
	if u := e.Utility(0); u != 1 {
		t.Errorf("Utility(0) = %v, want 1", u)
	}
	if u := e.Utility(e.MaxDistance()); u != 0 {
		t.Errorf("Utility(max) = %v, want 0", u)
	}
	if u := e.Utility(e.MaxDistance() * 2); u != 0 {
		t.Error("utility must clamp at 0")
	}
	if u := e.Utility(-1); u != 1 {
		t.Error("utility must clamp at 1")
	}
	mid := e.Utility(e.MaxDistance() / 2)
	if mid <= 0 || mid >= 1 {
		t.Errorf("mid utility = %v", mid)
	}
}

func TestNewEvaluatorValidates(t *testing.T) {
	bad := paperRequest()
	bad.Dims[0].Dim = "nope"
	if _, err := NewEvaluator(paperSpec(), bad); err == nil {
		t.Error("invalid request accepted")
	}
	s := paperSpec()
	s.Dimensions[0].Attributes[0].Domain = Domain{Kind: Discrete}
	if _, err := NewEvaluator(s, paperRequest()); err == nil {
		t.Error("invalid spec accepted")
	}
}

// TestBestProposalWins encodes the paper's core selection rule: among
// admissible proposals, the one with values closer to the preferences
// evaluates lower.
func TestBestProposalWins(t *testing.T) {
	e := mustEval(t)
	closer, err := e.Distance(admissibleLevel(9, 3))
	if err != nil {
		t.Fatal(err)
	}
	farther, err := e.Distance(admissibleLevel(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !(closer < farther) {
		t.Errorf("closer proposal must evaluate lower: %v vs %v", closer, farther)
	}
}
