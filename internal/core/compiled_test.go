package core

import (
	"math/rand"
	"testing"

	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/task"
)

// hideSlots wraps a demand model so it no longer advertises the
// SlotDemandModel fast path, forcing the level-by-level fallback.
type hideSlots struct{ dm task.DemandModel }

func (h hideSlots) Demand(spec *qos.Spec, level qos.Level) (resource.Vector, error) {
	return h.dm.Demand(spec, level)
}

// propDemand is a LinearDemand over the determinism fixtures. The
// coefficients are deliberately NOT exactly representable in binary
// (multiples of 0.3 and 1.1): bit-parity between the slot table and the
// level-by-level path must hold by construction (shared canonical
// summation order), not by luck with float-exact sums.
func propDemand(rng *rand.Rand) *task.LinearDemand {
	return &task.LinearDemand{
		Base: resource.V(resource.KV{K: resource.CPU, A: 0.3 * float64(15+rng.Intn(60))}),
		Coef: map[qos.AttrKey]resource.Vector{
			{Dim: "q", Attr: "rate"}: resource.V(
				resource.KV{K: resource.CPU, A: 1.1 * float64(1+rng.Intn(6))},
				resource.KV{K: resource.NetBW, A: 0.3 * float64(rng.Intn(24))},
			),
			{Dim: "q", Attr: "depth"}: resource.V(
				resource.KV{K: resource.Memory, A: 0.7 * float64(1+rng.Intn(6))},
				resource.KV{K: resource.CPU, A: 0.3 * float64(rng.Intn(5))},
			),
		},
	}
}

func sameFormulation(t *testing.T, label string, a, b *Formulation, aerr, berr error) {
	t.Helper()
	if (aerr != nil) != (berr != nil) {
		t.Fatalf("%s: feasibility disagrees: %v vs %v", label, aerr, berr)
	}
	if aerr != nil {
		return
	}
	if !a.Level.Equal(b.Level) {
		t.Fatalf("%s: levels differ: %v vs %v", label, a.Level, b.Level)
	}
	if a.Reward != b.Reward {
		t.Fatalf("%s: rewards differ bitwise: %v vs %v", label, a.Reward, b.Reward)
	}
	if a.Demand != b.Demand {
		t.Fatalf("%s: demands differ bitwise: %v vs %v", label, a.Demand, b.Demand)
	}
	if a.Degradations != b.Degradations {
		t.Fatalf("%s: degradations differ: %d vs %d", label, a.Degradations, b.Degradations)
	}
}

// TestCompiledFormulateMatchesFallback pins the incremental slot-delta
// demand path against the level-by-level fallback, bitwise, across
// random demand models and capacities, for all three formulators.
func TestCompiledFormulateMatchesFallback(t *testing.T) {
	spec := detSpec()
	req := detRequest()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dm := propDemand(rng)
		capacity := resource.V(
			resource.KV{K: resource.CPU, A: float64(rng.Intn(200))},
			resource.KV{K: resource.Memory, A: float64(rng.Intn(64))},
			resource.KV{K: resource.NetBW, A: float64(50 + rng.Intn(300))},
		)
		avail := func(d resource.Vector) bool { return d.Fits(capacity) }
		grid := 1 + rng.Intn(5)

		fast, err := CompileProblem(spec, &req, dm, grid, nil)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := CompileProblem(spec, &req, hideSlots{dm}, grid, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fast.table == nil {
			t.Fatal("LinearDemand must compile to a demand table")
		}
		if slow.table != nil {
			t.Fatal("hidden model must not compile")
		}

		f1, e1 := fast.Formulate(avail)
		f2, e2 := slow.Formulate(avail)
		sameFormulation(t, "formulate", f1, f2, e1, e2)

		r1, e1 := fast.FormulateResourceAware(avail)
		r2, e2 := slow.FormulateResourceAware(avail)
		sameFormulation(t, "resource-aware", r1, r2, e1, e2)

		x1, e1 := fast.FormulateExhaustive(avail, 1<<20)
		x2, e2 := slow.FormulateExhaustive(avail, 1<<20)
		sameFormulation(t, "exhaustive", x1, x2, e1, e2)
	}
}

// TestCompiledProblemReuse: one compiled problem formulated against
// shrinking availability must behave exactly like a freshly compiled one
// per call (providers cache compiled problems across CFP rounds).
func TestCompiledProblemReuse(t *testing.T) {
	spec := detSpec()
	req := detRequest()
	dm := propDemand(rand.New(rand.NewSource(42)))
	cp, err := CompileProblem(spec, &req, dm, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, cpu := range []float64{300, 120, 70, 40, 25, 10} {
		capacity := resource.V(
			resource.KV{K: resource.CPU, A: cpu},
			resource.KV{K: resource.Memory, A: 64},
			resource.KV{K: resource.NetBW, A: 500},
		)
		avail := func(d resource.Vector) bool { return d.Fits(capacity) }
		got, gerr := cp.Formulate(avail)
		fresh, err := CompileProblem(spec, &req, dm, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, werr := fresh.Formulate(avail)
		sameFormulation(t, "reuse", got, want, gerr, werr)
	}
}
