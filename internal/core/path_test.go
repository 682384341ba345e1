package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/task"
)

// propProblem builds a random valid (spec, request, linear demand)
// triple: one or two dimensions of numeric and string attributes, up to
// two sum/product dependencies so that some levels of the walk are
// inconsistent, and demand coefficients that are not exactly
// representable in binary.
func propProblem(rng *rand.Rand) (*qos.Spec, *qos.Request, *task.LinearDemand) {
	spec := &qos.Spec{Name: "prop"}
	req := &qos.Request{Service: "prop"}
	dm := &task.LinearDemand{
		Base: resource.V(resource.KV{K: resource.CPU, A: 0.3 * float64(rng.Intn(40))}),
		Coef: make(map[qos.AttrKey]resource.Vector),
	}
	var numeric []qos.AttrKey
	for d, nDims := 0, 1+rng.Intn(2); d < nDims; d++ {
		dim := qos.Dimension{ID: fmt.Sprintf("d%d", d)}
		dp := qos.DimPref{Dim: dim.ID}
		for a, nAttrs := 0, 1+rng.Intn(3); a < nAttrs; a++ {
			key := qos.AttrKey{Dim: dim.ID, Attr: fmt.Sprintf("a%d", a)}
			var dom qos.Domain
			var sets []qos.ValueSet
			switch rng.Intn(3) {
			case 0: // continuous int range, integral span endpoints
				hi := int64(8 + rng.Intn(24))
				dom = qos.IntRange(1, hi)
				sets = append(sets, qos.Span(float64(1+rng.Int63n(hi)), float64(1+rng.Int63n(hi))))
				numeric = append(numeric, key)
			case 1: // discrete ints, a preference-ordered subset accepted
				vals := []int64{1, 2, 4, 8, 16}[:2+rng.Intn(4)]
				dom = qos.DiscreteInts(vals...)
				for _, i := range rng.Perm(len(vals))[:1+rng.Intn(len(vals))] {
					sets = append(sets, qos.One(qos.Int(vals[i])))
				}
				numeric = append(numeric, key)
			default: // discrete strings, demand by quality index
				all := []string{"hq", "main", "fast", "eco"}[:2+rng.Intn(3)]
				dom = qos.DiscreteStrings(all...)
				for _, i := range rng.Perm(len(all))[:1+rng.Intn(len(all))] {
					sets = append(sets, qos.One(qos.Str(all[i])))
				}
			}
			dim.Attributes = append(dim.Attributes, qos.Attribute{ID: key.Attr, Domain: dom})
			dp.Attrs = append(dp.Attrs, qos.AttrPref{Attr: key.Attr, Sets: sets})
			dm.Coef[key] = resource.V(
				resource.KV{K: resource.CPU, A: 1.1 * float64(rng.Intn(5))},
				resource.KV{K: resource.Memory, A: 0.7 * float64(rng.Intn(4))},
				resource.KV{K: resource.NetBW, A: 0.3 * float64(rng.Intn(6))},
			)
		}
		spec.Dimensions = append(spec.Dimensions, dim)
		req.Dims = append(req.Dims, dp)
	}
	for n := rng.Intn(3); n > 0 && len(numeric) >= 2; n-- {
		perm := rng.Perm(len(numeric))
		kind, bound := qos.DepMaxSum, float64(2+rng.Intn(30))
		if rng.Intn(2) == 0 {
			kind, bound = qos.DepMaxProduct, float64(2+rng.Intn(200))
		}
		spec.Deps = append(spec.Deps, qos.Dependency{Kind: kind, A: numeric[perm[0]], B: numeric[perm[1]], Bound: bound})
	}
	return spec, req, dm
}

// loopFormulate is the availability-driven Section 5 loop Formulate ran
// before the path became data — degrade until schedulable, re-deriving
// everything per call. It survives here as the reference the scan is
// held to.
func loopFormulate(cp *CompiledProblem, avail AvailFunc) (*Formulation, error) {
	a := cp.Ladder.NewAssignment()
	for degradations := 0; ; degradations++ {
		demand, err := cp.demand(a)
		if err != nil {
			return nil, err
		}
		if ok, _ := cp.C.DepsSatisfied(a); ok && avail(demand) {
			return cp.finish(a, demand, cp.C.Reward(a), degradations), nil
		}
		i, ok := cp.cheapestDegradation(a)
		if !ok {
			return nil, ErrNoFeasibleLevel
		}
		a[i]++
	}
}

// TestDegradationPathProperties checks, over random specs, requests,
// demand models and capacities, what every reader of CompiledProblem.Path
// relies on: stops are dependency-consistent and carry exactly the values
// the kernel computes on their assignment, reward never rises along the
// path, the table and fallback demand paths agree bit for bit, and
// Formulate returns exactly the first stop the node accepts — which is
// also what the availability-driven loop returns.
func TestDegradationPathProperties(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec, req, dm := propProblem(rng)
		grid := 1 + rng.Intn(5)
		cp, err := CompileProblem(spec, req, dm, grid, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		slow, err := CompileProblem(spec, req, task.FuncDemand(dm.Demand), grid, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if cp.table == nil || slow.table != nil {
			t.Fatalf("seed %d: want LinearDemand on the table and FuncDemand on the fallback", seed)
		}
		if len(slow.Path) != len(cp.Path) {
			t.Fatalf("seed %d: %d stops on the table path, %d on the fallback", seed, len(cp.Path), len(slow.Path))
		}
		ev := &qos.Evaluator{Spec: spec, Req: req}
		for i, s := range cp.Path {
			if ok, dep := cp.C.DepsSatisfied(s.Assignment); !ok {
				t.Fatalf("seed %d stop %d: violates dependency %d", seed, i, dep)
			}
			steps := 0
			for _, c := range s.Assignment {
				steps += c
			}
			if s.steps != steps {
				t.Fatalf("seed %d stop %d: steps %d, assignment %v is %d degradations from preferred", seed, i, s.steps, s.Assignment, steps)
			}
			if d := cp.C.Distance(s.Assignment); s.Distance != d || s.Utility != ev.Utility(d) || s.reward != cp.C.Reward(s.Assignment) {
				t.Fatalf("seed %d stop %d: stored distance/utility/reward differ from the kernel's", seed, i)
			}
			if i > 0 && (s.reward > cp.Path[i-1].reward || s.steps <= cp.Path[i-1].steps) {
				t.Fatalf("seed %d stop %d: reward %v after %v, steps %d after %d", seed, i, s.reward, cp.Path[i-1].reward, s.steps, cp.Path[i-1].steps)
			}
			if f := slow.Path[i]; !slices.Equal(f.Assignment, s.Assignment) || f.Demand != s.Demand {
				t.Fatalf("seed %d stop %d: fallback stop %v %v, table stop %v %v", seed, i, f.Assignment, f.Demand, s.Assignment, s.Demand)
			}
		}
		for trial := 0; trial < 8; trial++ {
			capacity := resource.V(
				resource.KV{K: resource.CPU, A: float64(rng.Intn(400))},
				resource.KV{K: resource.Memory, A: float64(rng.Intn(120))},
				resource.KV{K: resource.NetBW, A: float64(rng.Intn(200))},
			)
			avail := func(d resource.Vector) bool { return d.Fits(capacity) }
			first := slices.IndexFunc(cp.Path, func(s Stop) bool { return avail(s.Demand) })
			got, gerr := cp.Formulate(avail)
			want, werr := loopFormulate(cp, avail)
			sameFormulation(t, fmt.Sprintf("seed %d trial %d", seed, trial), got, want, gerr, werr)
			if first < 0 {
				if !errors.Is(gerr, ErrNoFeasibleLevel) {
					t.Fatalf("seed %d trial %d: no stop fits, err = %v", seed, trial, gerr)
				}
				continue
			}
			s := cp.Path[first]
			if gerr != nil || !slices.Equal(got.Assignment, s.Assignment) || got.Demand != s.Demand ||
				got.Reward != s.reward || got.Degradations != s.steps {
				t.Fatalf("seed %d trial %d: got %+v (%v), want stop %d %+v", seed, trial, got, gerr, first, s)
			}
		}
	}
}

// TestDegradationPathDemandError: a demand-model error ends the path
// where the walk meets it. Nodes that accept an earlier stop never see
// it; a scan that reaches it returns it, as the loop did.
func TestDegradationPathDemandError(t *testing.T) {
	spec, req := detSpec(), detRequest()
	lin := propDemand(rand.New(rand.NewSource(1)))
	boom := errors.New("demand model failed")
	depth := qos.AttrKey{Dim: "q", Attr: "depth"}
	dm := task.FuncDemand(func(spec *qos.Spec, level qos.Level) (resource.Vector, error) {
		if level[depth].Num() < 8 {
			return resource.Vector{}, boom
		}
		return lin.Demand(spec, level)
	})
	cp, err := CompileProblem(spec, &req, dm, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Path) == 0 {
		t.Fatal("the error cut the path before its first stop")
	}
	for _, s := range cp.Path {
		if s.Assignment[cp.Ladder.AttrIndex(depth)] != 0 {
			t.Fatalf("stop %v lies beyond the failing level", s.Assignment)
		}
	}
	for _, avail := range []AvailFunc{
		func(resource.Vector) bool { return true },
		func(d resource.Vector) bool { return d == cp.Path[len(cp.Path)-1].Demand },
		func(resource.Vector) bool { return false },
	} {
		got, gerr := cp.Formulate(avail)
		want, werr := loopFormulate(cp, avail)
		sameFormulation(t, "demand error", got, want, gerr, werr)
		if gerr != nil && !errors.Is(gerr, boom) {
			t.Fatalf("err = %v, want the demand model's", gerr)
		}
	}
}
