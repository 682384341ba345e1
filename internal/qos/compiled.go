package qos

import "fmt"

// Compiled is the slot-indexed form of one (Spec, Request, Ladder)
// triple: everything the Section 5/6 inner loops need, precomputed once
// so that Reward, Distance and DepsSatisfied evaluate directly on an
// Assignment (a flat []int) with zero map operations and zero
// allocations. The map-based Level stays the boundary/JSON type; the
// Level and Assignment converters bridge the two worlds.
//
// Bit-compatibility contract: for every assignment a over the ladder,
//
//	c.Distance(a)           == Evaluator.Distance(ld.Level(a))
//	c.Reward(a)             == Reward(ld, a, penalty)
//	c.DepsSatisfied(a)      == Spec.DepsSatisfied(ld.Level(a))
//
// with float64 equality, not epsilon equality: every precomputed term
// is the same product the map-based path computes, summed in the same
// order. The property test in compiled_prop_test.go enforces this.
type Compiled struct {
	Spec   *Spec
	Req    *Request
	Ladder *Ladder
	Slots  []CompiledSlot

	dims []compiledDim
	deps []compiledDep
	// nDims is the reward baseline n (the number of QoS dimensions).
	nDims float64
}

// CompiledSlot is the per-attribute table of one ladder slot.
type CompiledSlot struct {
	Key AttrKey
	// Choices aliases the ladder's candidate list for this attribute.
	Choices []Value
	// Weight is the combined importance weight w_k*w_i (eq. 3).
	Weight float64
	// DifW[c] is w_i * dif(Choices[c], preferred) — the slot's term of
	// the eq. 4 per-dimension distance.
	DifW []float64
	// Pen[c] is penalty(c, len(Choices), Weight) — the slot's term of
	// the eq. 1 reward.
	Pen []float64
}

// compiledDim delimits one request dimension's slot range [lo, hi) and
// carries its eq. 3 weight w_k.
type compiledDim struct {
	weight float64
	lo, hi int
}

// compiledDep is one spec dependency with both endpoints in the ladder,
// flattened to a choice-index satisfaction matrix. Dependencies with an
// endpoint outside the ladder are vacuously satisfied by every ladder
// level (the level simply does not carry the attribute) and are not
// compiled.
type compiledDep struct {
	index int // position in Spec.Deps, for DepsSatisfied parity
	a, b  int // slot indices
	ok    [][]bool
}

// Compile builds the slot-indexed tables for assignments over ld.
// penalty defaults to DefaultPenalty when nil, mirroring Reward.
func (e *Evaluator) Compile(ld *Ladder, penalty PenaltyFunc) (*Compiled, error) {
	if penalty == nil {
		penalty = DefaultPenalty
	}
	c := &Compiled{Spec: e.Spec, Req: e.Req, Ladder: ld, Slots: make([]CompiledSlot, ld.Len())}
	if ld.Len() > 0 {
		c.nDims = float64(ld.Attrs[0].DimCount)
	}
	n := len(e.Req.Dims)
	slot := 0
	for k, dp := range e.Req.Dims {
		wk := RankWeight(k+1, n)
		ak := len(dp.Attrs)
		dim := compiledDim{weight: wk, lo: slot}
		for i, ap := range dp.Attrs {
			key := AttrKey{Dim: dp.Dim, Attr: ap.Attr}
			li := ld.AttrIndex(key)
			if li != slot {
				return nil, fmt.Errorf("qos: compile: ladder slot order diverges from request order at %v", key)
			}
			la := &ld.Attrs[li]
			pref, ok := e.Req.PreferredValue(key)
			if !ok {
				return nil, fmt.Errorf("qos: compile: request %q carries no preference for attribute %v", e.Req.Service, key)
			}
			wi := RankWeight(i+1, ak)
			cs := CompiledSlot{
				Key:     key,
				Choices: la.Choices,
				Weight:  la.Weight(),
				DifW:    make([]float64, len(la.Choices)),
				Pen:     make([]float64, len(la.Choices)),
			}
			for ci, v := range la.Choices {
				dif, err := e.Dif(key, v, pref)
				if err != nil {
					return nil, err
				}
				cs.DifW[ci] = wi * dif
				cs.Pen[ci] = penalty(ci, len(la.Choices), cs.Weight)
			}
			c.Slots[slot] = cs
			slot++
		}
		dim.hi = slot
		c.dims = append(c.dims, dim)
	}
	if slot != ld.Len() {
		return nil, fmt.Errorf("qos: compile: ladder has %d slots, request yields %d", ld.Len(), slot)
	}
	c.compileDeps()
	return c, nil
}

// compileDeps flattens every dependency whose endpoints both appear in
// the ladder into a satisfaction matrix over choice indices, reusing
// Dependency.Satisfied so the semantics stay in one place.
func (c *Compiled) compileDeps() {
	scratch := make(Level, 2)
	for di := range c.Spec.Deps {
		dep := &c.Spec.Deps[di]
		sa, sb := c.Ladder.AttrIndex(dep.A), c.Ladder.AttrIndex(dep.B)
		if sa < 0 || sb < 0 {
			continue // vacuous for every ladder level
		}
		ca, cb := c.Slots[sa].Choices, c.Slots[sb].Choices
		ok := make([][]bool, len(ca))
		for i, va := range ca {
			ok[i] = make([]bool, len(cb))
			for j, vb := range cb {
				scratch[dep.A], scratch[dep.B] = va, vb
				ok[i][j] = dep.Satisfied(scratch)
			}
		}
		delete(scratch, dep.A)
		delete(scratch, dep.B)
		c.deps = append(c.deps, compiledDep{index: di, a: sa, b: sb, ok: ok})
	}
}

// Distance is the Section 6 evaluation of the assignment's level
// against the user's preferences (eqs. 2-5), allocation-free. Ladder
// assignments are admissible by construction; use DepsSatisfied to
// check the spec's dependencies, which Distance (like the paper's
// evaluation) presumes hold.
func (c *Compiled) Distance(a Assignment) float64 {
	var total float64
	for _, d := range c.dims {
		var dd float64
		for s := d.lo; s < d.hi; s++ {
			dd += c.Slots[s].DifW[a[s]]
		}
		total += d.weight * dd
	}
	return total
}

// Reward is the Section 5 local reward (eq. 1) of the assignment,
// allocation-free.
func (c *Compiled) Reward(a Assignment) float64 {
	if len(c.Slots) == 0 {
		return 0
	}
	var sum float64
	for s := range c.Slots {
		sum += c.Slots[s].Pen[a[s]]
	}
	return c.nDims - sum
}

// DepsSatisfied reports whether the assignment's level satisfies every
// spec dependency, returning the index (into Spec.Deps) of the first
// violated one, or -1.
func (c *Compiled) DepsSatisfied(a Assignment) (bool, int) {
	for i := range c.deps {
		d := &c.deps[i]
		if !d.ok[a[d.a]][a[d.b]] {
			return false, d.index
		}
	}
	return true, -1
}

// DegradeCost is the local-reward decrease of stepping slot i one level
// down from its position in a: penalty(a[i]+1) - penalty(a[i]). The
// caller must ensure the step exists (Ladder.CanDegrade).
func (c *Compiled) DegradeCost(a Assignment, i int) float64 {
	return c.Slots[i].Pen[a[i]+1] - c.Slots[i].Pen[a[i]]
}

// NewAssignment returns the all-preferred assignment.
func (c *Compiled) NewAssignment() Assignment { return c.Ladder.NewAssignment() }
