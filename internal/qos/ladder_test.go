package qos

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustLadder(t *testing.T, gridSteps int) *Ladder {
	t.Helper()
	ld, err := BuildLadder(paperSpec(), paperRequest(), gridSteps)
	if err != nil {
		t.Fatalf("BuildLadder: %v", err)
	}
	return ld
}

func TestLadderStructure(t *testing.T) {
	ld := mustLadder(t, 5)
	if ld.Len() != 4 {
		t.Fatalf("ladder attrs = %d, want 4", ld.Len())
	}
	// frame_rate: span [10..5] (6 ints at grid 5) + span [4..1] (grid 5
	// over 4 ints dedups to 4) = 10 choices, most preferred first.
	fr := ld.Attrs[0]
	if fr.Key != (AttrKey{Dim: "video", Attr: "frame_rate"}) {
		t.Fatalf("first ladder attr = %v; ladder must follow importance order", fr.Key)
	}
	if !fr.Choices[0].Equal(Int(10)) {
		t.Errorf("first choice = %v, want 10 (user preferred)", fr.Choices[0])
	}
	last := fr.Choices[len(fr.Choices)-1]
	if !last.Equal(Int(1)) {
		t.Errorf("last choice = %v, want 1 (deepest degradation)", last)
	}
	// color_depth: {3, 1}.
	cd := ld.Attrs[1]
	if len(cd.Choices) != 2 || !cd.Choices[0].Equal(Int(3)) || !cd.Choices[1].Equal(Int(1)) {
		t.Errorf("color_depth choices = %v", cd.Choices)
	}
	// Audio attrs have a single fixed choice.
	if len(ld.Attrs[2].Choices) != 1 || len(ld.Attrs[3].Choices) != 1 {
		t.Error("audio attributes should have exactly one choice")
	}
	// Indices: video is dim 1 of 2, audio dim 2 of 2.
	if fr.DimIndex != 1 || fr.DimCount != 2 || fr.AttrIndex != 1 || fr.AttrCount != 2 {
		t.Errorf("frame_rate indices = %+v", fr)
	}
	if ld.Attrs[3].DimIndex != 2 || ld.Attrs[3].AttrIndex != 2 {
		t.Errorf("sample_bits indices = %+v", ld.Attrs[3])
	}
}

func TestLadderWeights(t *testing.T) {
	ld := mustLadder(t, 4)
	// w_k = (n-k+1)/n with n=2: video 1.0, audio 0.5.
	// w_i analogous within dimension.
	wantW := []float64{1.0 * 1.0, 1.0 * 0.5, 0.5 * 1.0, 0.5 * 0.5}
	for i, w := range wantW {
		if got := ld.Attrs[i].Weight(); got != w {
			t.Errorf("weight[%d] = %v, want %v", i, got, w)
		}
	}
}

func TestLadderDuplicateDedup(t *testing.T) {
	// Overlapping spans must not produce duplicate candidates.
	spec := paperSpec()
	r := &Request{
		Service: "dup",
		Dims: []DimPref{{
			Dim: "video",
			Attrs: []AttrPref{
				{Attr: "frame_rate", Sets: []ValueSet{Span(10, 5), Span(7, 3)}},
				{Attr: "color_depth", Sets: []ValueSet{One(Int(3))}},
			},
		}},
	}
	ld, err := BuildLadder(spec, r, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, v := range ld.Attrs[0].Choices {
		if seen[v.I] {
			t.Fatalf("duplicate candidate %v", v)
		}
		seen[v.I] = true
	}
}

func TestLadderAssignmentAndLevel(t *testing.T) {
	ld := mustLadder(t, 5)
	a := ld.NewAssignment()
	level := ld.Level(a)
	if !level.Equal(Level{
		{Dim: "video", Attr: "frame_rate"}:    Int(10),
		{Dim: "video", Attr: "color_depth"}:   Int(3),
		{Dim: "audio", Attr: "sampling_rate"}: Int(8),
		{Dim: "audio", Attr: "sample_bits"}:   Int(8),
	}) {
		t.Errorf("preferred level = %v", level)
	}
	if !ld.CanDegrade(a, 0) {
		t.Error("frame_rate must be degradable")
	}
	if ld.CanDegrade(a, 2) {
		t.Error("single-choice attr must not be degradable")
	}
	for i := range ld.Attrs {
		a[i] = len(ld.Attrs[i].Choices) - 1
		if ld.CanDegrade(a, i) {
			t.Errorf("attr %d degradable at its deepest choice", i)
		}
	}
	c := a.Clone()
	c[0] = 0
	if a[0] == 0 {
		t.Error("Clone aliases")
	}
}

func TestLadderEveryChoiceAdmissible(t *testing.T) {
	// Property: every level the ladder can produce is admissible for the
	// request that produced it and within the spec's domains.
	spec, req := paperSpec(), paperRequest()
	ld, err := BuildLadder(spec, req, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		a := ld.NewAssignment()
		for i := range a {
			a[i] = rng.Intn(len(ld.Attrs[i].Choices))
		}
		level := ld.Level(a)
		if !req.Admits(level) {
			t.Fatalf("ladder produced inadmissible level %v (assignment %v)", level, a)
		}
		for k, v := range level {
			if !spec.Attr(k).Domain.Contains(v) {
				t.Fatalf("ladder produced out-of-domain value %v for %v", v, k)
			}
		}
	}
}

func TestLadderCombinations(t *testing.T) {
	ld := mustLadder(t, 5)
	want := int64(1)
	for i := range ld.Attrs {
		want *= int64(len(ld.Attrs[i].Choices))
	}
	if got := ld.Combinations(); got != want {
		t.Errorf("Combinations = %d, want %d", got, want)
	}
}

func TestLadderAttrIndex(t *testing.T) {
	ld := mustLadder(t, 4)
	if ld.AttrIndex(AttrKey{Dim: "video", Attr: "color_depth"}) != 1 {
		t.Error("AttrIndex lookup broken")
	}
	if ld.AttrIndex(AttrKey{Dim: "x", Attr: "y"}) != -1 {
		t.Error("unknown key should be -1")
	}
}

func TestLadderGridStepsDefault(t *testing.T) {
	ld, err := BuildLadder(paperSpec(), paperRequest(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Default grid steps must yield at least the span endpoints.
	if len(ld.Attrs[0].Choices) < 2 {
		t.Error("default grid did not expand the span")
	}
}

func TestLadderRejectsInvalidRequest(t *testing.T) {
	r := paperRequest()
	r.Dims[0].Dim = "nope"
	if _, err := BuildLadder(paperSpec(), r, 4); err == nil {
		t.Error("invalid request accepted")
	}
}

func TestRewardProperties(t *testing.T) {
	ld := mustLadder(t, 5)
	a := ld.NewAssignment()
	// At the preferred level, reward = n (number of dimensions).
	if r := Reward(ld, a, nil); r != 2 {
		t.Errorf("preferred reward = %v, want 2 (n dimensions)", r)
	}
	// Degradation strictly decreases reward for multi-choice attrs.
	prev := Reward(ld, a, nil)
	for ld.CanDegrade(a, 0) {
		a[0]++
		r := Reward(ld, a, nil)
		if r >= prev {
			t.Fatalf("reward did not decrease: %v -> %v", prev, r)
		}
		prev = r
	}
	// Quadratic penalty is gentler near the top than the default.
	b := ld.NewAssignment()
	b[0] = 1
	if Reward(ld, b, QuadraticPenalty) < Reward(ld, b, DefaultPenalty) {
		t.Error("quadratic penalty should be gentler for shallow degradations")
	}
}

func TestRewardMonotoneProperty(t *testing.T) {
	ld := mustLadder(t, 5)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := ld.NewAssignment()
		for i := range a {
			a[i] = rng.Intn(len(ld.Attrs[i].Choices))
		}
		// Degrading any attribute never increases reward.
		r0 := Reward(ld, a, nil)
		for i := range a {
			if !ld.CanDegrade(a, i) {
				continue
			}
			b := a.Clone()
			b[i]++
			if Reward(ld, b, nil) > r0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPenaltyEdgeCases(t *testing.T) {
	if DefaultPenalty(0, 5, 1) != 0 || QuadraticPenalty(0, 5, 1) != 0 {
		t.Error("no penalty at preferred choice")
	}
	if DefaultPenalty(3, 1, 1) != 0 {
		t.Error("single-step ladder cannot be penalized")
	}
	if DefaultPenalty(4, 5, 1) != 1 {
		t.Error("deepest degradation should cost the full weight")
	}
	if QuadraticPenalty(2, 5, 1) >= DefaultPenalty(2, 5, 1) {
		t.Error("quadratic must undercut linear mid-ladder")
	}
}

// QuadraticPenalty penalizes deep degradations super-linearly, modelling
// users that tolerate small degradations but dislike large ones.
func QuadraticPenalty(choice, steps int, weight float64) float64 {
	if steps <= 1 || choice <= 0 {
		return 0
	}
	f := float64(choice) / float64(steps-1)
	return weight * f * f
}
