package core_test

import (
	"errors"
	"testing"

	. "repro/internal/core"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/task"
	"repro/internal/workload"
)

// availCap returns an AvailFunc over a fixed capacity vector.
func availCap(capacity resource.Vector) AvailFunc {
	return func(d resource.Vector) bool { return d.Fits(capacity) }
}

// mustCompile compiles the formulation problem or fails the test.
func mustCompile(t *testing.T, spec *qos.Spec, req *qos.Request, dm task.DemandModel, gridSteps int) *CompiledProblem {
	t.Helper()
	cp, err := CompileProblem(spec, req, dm, gridSteps, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func streamingInputs() (*qos.Spec, qos.Request, task.DemandModel) {
	return workload.VideoSpec(), workload.StreamingRequest("t"), workload.VideoDemand(1)
}

func TestFormulateServesPreferredWhenAbundant(t *testing.T) {
	spec, req, dm := streamingInputs()
	f, err := mustCompile(t, spec, &req, dm, 4).Formulate(availCap(resource.V(
		resource.KV{K: resource.CPU, A: 1e9},
		resource.KV{K: resource.Memory, A: 1e9},
		resource.KV{K: resource.NetBW, A: 1e9},
		resource.KV{K: resource.Energy, A: 1e9},
	)))
	if err != nil {
		t.Fatal(err)
	}
	if f.Degradations != 0 {
		t.Errorf("degradations = %d, want 0", f.Degradations)
	}
	if !f.Level.Equal(req.Preferred()) {
		// Preferred() returns Float for spans; the ladder materializes
		// ints for int domains, so compare per attribute numerically.
		for k, v := range req.Preferred() {
			got := f.Level[k]
			if got.Num() != v.Num() {
				t.Errorf("attr %v = %v, want %v", k, got, v)
			}
		}
	}
	// Reward at preferred level is n (= 2 dimensions).
	if f.Reward != 2 {
		t.Errorf("reward = %v, want 2", f.Reward)
	}
}

func TestFormulateDegradesUntilSchedulable(t *testing.T) {
	spec, req, dm := streamingInputs()
	// Preferred demand is ~370 CPU; allow only 200.
	capacity := resource.V(
		resource.KV{K: resource.CPU, A: 200},
		resource.KV{K: resource.Memory, A: 1e9},
		resource.KV{K: resource.NetBW, A: 1e9},
		resource.KV{K: resource.Energy, A: 1e9},
	)
	f, err := mustCompile(t, spec, &req, dm, 4).Formulate(availCap(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if f.Degradations == 0 {
		t.Error("expected degradations under scarcity")
	}
	if !f.Demand.Fits(capacity) {
		t.Errorf("formulated demand %v does not fit capacity", f.Demand)
	}
	if !req.Admits(f.Level) {
		t.Errorf("formulated level %v not admissible", f.Level)
	}
	if f.Reward >= 2 {
		t.Errorf("reward = %v, must be below n after degradation", f.Reward)
	}
}

func TestFormulateFailsWhenImpossible(t *testing.T) {
	spec, req, dm := streamingInputs()
	_, err := mustCompile(t, spec, &req, dm, 4).Formulate(availCap(resource.V(resource.KV{K: resource.CPU, A: 1})))
	if !errors.Is(err, ErrNoFeasibleLevel) {
		t.Fatalf("err = %v, want ErrNoFeasibleLevel", err)
	}
}

func TestFormulateRespectsDependencies(t *testing.T) {
	spec, req, dm := streamingInputs()
	// Bound frame_rate x color_depth: the preferred 30x24=720 violates;
	// the heuristic must degrade until the dependency holds.
	spec.Deps = []qos.Dependency{{
		Kind:  qos.DepMaxProduct,
		A:     qos.AttrKey{Dim: "video", Attr: "frame_rate"},
		B:     qos.AttrKey{Dim: "video", Attr: "color_depth"},
		Bound: 500,
	}}
	f, err := mustCompile(t, spec, &req, dm, 4).Formulate(availCap(resource.V(
		resource.KV{K: resource.CPU, A: 1e9},
		resource.KV{K: resource.Memory, A: 1e9},
		resource.KV{K: resource.NetBW, A: 1e9},
		resource.KV{K: resource.Energy, A: 1e9},
	)))
	if err != nil {
		t.Fatal(err)
	}
	fr := f.Level[qos.AttrKey{Dim: "video", Attr: "frame_rate"}].Num()
	cd := f.Level[qos.AttrKey{Dim: "video", Attr: "color_depth"}].Num()
	if fr*cd > 500 {
		t.Errorf("dependency violated: %v * %v > 500", fr, cd)
	}
}

func TestFormulateMatchesPaperGreedyOrder(t *testing.T) {
	// The heuristic's first degradation must be the one with the
	// minimal reward decrease. For the streaming request at grid 4 the
	// frame-rate ladder has ~10 steps at weight 1.0 (delta ~0.11 per
	// step) while every other attribute costs >= 0.25 per step, so a
	// single-step shortage must be absorbed by frame rate alone, with
	// all other attributes untouched.
	spec, req, dm := streamingInputs()
	capacity := resource.V(
		resource.KV{K: resource.CPU, A: 360}, // just below preferred (~370)
		resource.KV{K: resource.Memory, A: 1e9},
		resource.KV{K: resource.NetBW, A: 1e9},
		resource.KV{K: resource.Energy, A: 1e9},
	)
	f, err := mustCompile(t, spec, &req, dm, 4).Formulate(availCap(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if f.Degradations != 1 {
		t.Fatalf("degradations = %d, want exactly 1", f.Degradations)
	}
	cd := f.Level[qos.AttrKey{Dim: "video", Attr: "color_depth"}]
	sr := f.Level[qos.AttrKey{Dim: "audio", Attr: "sampling_rate"}]
	sb := f.Level[qos.AttrKey{Dim: "audio", Attr: "sample_bits"}]
	if cd.Num() != 24 || sr.Num() != 44 || sb.Num() != 16 {
		t.Errorf("expensive attributes degraded first: cd=%v sr=%v sb=%v", cd, sr, sb)
	}
	fr := f.Level[qos.AttrKey{Dim: "video", Attr: "frame_rate"}]
	if fr.Num() >= 30 {
		t.Errorf("frame rate = %v, want one step below 30 (cheapest degradation)", fr)
	}
}

func TestFormulateExhaustiveAtLeastHeuristic(t *testing.T) {
	spec, req, dm := streamingInputs()
	cp := mustCompile(t, spec, &req, dm, 3)
	for _, cpu := range []float64{1e9, 500, 380, 300, 250, 220} {
		capacity := resource.V(
			resource.KV{K: resource.CPU, A: cpu},
			resource.KV{K: resource.Memory, A: 1e9},
			resource.KV{K: resource.NetBW, A: 1e9},
			resource.KV{K: resource.Energy, A: 1e9},
		)
		h, herr := cp.Formulate(availCap(capacity))
		o, oerr := cp.FormulateExhaustive(availCap(capacity), 1<<21)
		if (herr == nil) != (oerr == nil) {
			t.Fatalf("cpu=%v: feasibility disagreement (%v vs %v)", cpu, herr, oerr)
		}
		if herr != nil {
			continue
		}
		if o.Reward < h.Reward-1e-12 {
			t.Errorf("cpu=%v: exhaustive reward %v below heuristic %v", cpu, o.Reward, h.Reward)
		}
		if !o.Demand.Fits(capacity) {
			t.Errorf("cpu=%v: exhaustive demand does not fit", cpu)
		}
	}
}

func TestFormulateResourceAwareDominatesPaperHeuristic(t *testing.T) {
	spec, req, dm := streamingInputs()
	cp := mustCompile(t, spec, &req, dm, 3)
	pref := cp.Path[0].Demand // the preferred level: no dependencies declared
	for _, frac := range []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5} {
		capacity := pref.Scale(frac)
		h, herr := cp.Formulate(availCap(capacity))
		ra, raerr := cp.FormulateResourceAware(availCap(capacity))
		if (herr == nil) != (raerr == nil) {
			t.Fatalf("frac=%v: feasibility disagreement", frac)
		}
		if herr != nil {
			continue
		}
		if ra.Reward < h.Reward-1e-12 {
			t.Errorf("frac=%v: resource-aware reward %v below paper heuristic %v", frac, ra.Reward, h.Reward)
		}
	}
}

func TestFormulateExhaustiveBoundsSearch(t *testing.T) {
	spec, req, dm := streamingInputs()
	if _, err := mustCompile(t, spec, &req, dm, 10).FormulateExhaustive(availCap(resource.Vector{}), 4); err == nil {
		t.Error("combination bound not enforced")
	}
}

func TestFormulateInvalidRequest(t *testing.T) {
	spec, req, dm := streamingInputs()
	req.Dims[0].Dim = "nope"
	if _, err := CompileProblem(spec, &req, dm, 4, nil); err == nil {
		t.Error("invalid request accepted")
	}
}
