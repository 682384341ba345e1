package qos

import (
	"fmt"
	"math"
)

// DefaultGridSteps is the number of degradation steps generated inside one
// continuous accepted span when building a Ladder. The paper's heuristic
// (Section 5) degrades attributes level by level (Qkj -> Qk(j+1)); for
// continuous spans a finite grid realizes those levels.
const DefaultGridSteps = 4

// LadderAttr is the ordered candidate list for one attribute: concrete
// values from most to least preferred, all admissible by construction.
type LadderAttr struct {
	Key AttrKey
	// DimIndex is the 1-based importance position k of the dimension in
	// the request; AttrIndex is the 1-based position i of the attribute
	// within its dimension. DimCount and AttrCount are the totals n and
	// attr_k used by the weight formulas.
	DimIndex, AttrIndex int
	DimCount, AttrCount int
	Choices             []Value
}

// Weight returns the combined importance weight w_k * w_i of the
// attribute, with w_k = (n-k+1)/n (eq. 3) and the analogous intra-dimension
// attribute weight w_i = (attr_k-i+1)/attr_k.
func (la *LadderAttr) Weight() float64 {
	return RankWeight(la.DimIndex, la.DimCount) * RankWeight(la.AttrIndex, la.AttrCount)
}

// Ladder is the discretized degradation space of a request: for each
// requested attribute, the ordered candidate values. The proposal
// formulation heuristic walks levels down these per-attribute lists.
type Ladder struct {
	Attrs []LadderAttr
	index map[AttrKey]int
}

// BuildLadder expands a validated request into a Ladder. Discrete accepted
// sets contribute their values in listed order; continuous spans
// contribute gridSteps+1 evenly spaced values from the preferred endpoint
// to the other end (gridSteps <= 0 selects DefaultGridSteps). Duplicate
// candidates are dropped, keeping the most preferred occurrence.
func BuildLadder(spec *Spec, r *Request, gridSteps int) (*Ladder, error) {
	if err := r.Validate(spec); err != nil {
		return nil, err
	}
	if gridSteps <= 0 {
		gridSteps = DefaultGridSteps
	}
	ld := &Ladder{index: make(map[AttrKey]int)}
	n := len(r.Dims)
	for di, dp := range r.Dims {
		ak := len(dp.Attrs)
		for ai, ap := range dp.Attrs {
			attr := spec.Dimension(dp.Dim).Attribute(ap.Attr)
			la := LadderAttr{
				Key:      AttrKey{Dim: dp.Dim, Attr: ap.Attr},
				DimIndex: di + 1, AttrIndex: ai + 1,
				DimCount: n, AttrCount: ak,
			}
			for _, set := range ap.Sets {
				for _, v := range expandSet(attr, set, gridSteps) {
					if !containsValue(la.Choices, v) {
						la.Choices = append(la.Choices, v)
					}
				}
			}
			if len(la.Choices) == 0 {
				return nil, fmt.Errorf("qos: ladder: attribute %v yields no candidates", la.Key)
			}
			ld.index[la.Key] = len(ld.Attrs)
			ld.Attrs = append(ld.Attrs, la)
		}
	}
	return ld, nil
}

func expandSet(attr *Attribute, set ValueSet, gridSteps int) []Value {
	if !set.Continuous {
		return []Value{set.Single}
	}
	from, to := set.From, set.To
	mk := func(x float64) Value {
		if attr.Domain.Type == TypeInt {
			return Int(int64(math.Round(x)))
		}
		return Float(x)
	}
	if from == to {
		return []Value{mk(from)}
	}
	out := make([]Value, 0, gridSteps+1)
	for s := 0; s <= gridSteps; s++ {
		x := from + (to-from)*float64(s)/float64(gridSteps)
		v := mk(x)
		if !containsValue(out, v) {
			out = append(out, v)
		}
	}
	return out
}

func containsValue(vs []Value, v Value) bool {
	for _, x := range vs {
		if x.Equal(v) {
			return true
		}
	}
	return false
}

// Len returns the number of laddered attributes.
func (ld *Ladder) Len() int { return len(ld.Attrs) }

// AttrIndex returns the position of key in Attrs, or -1.
func (ld *Ladder) AttrIndex(key AttrKey) int {
	if i, ok := ld.index[key]; ok {
		return i
	}
	return -1
}

// Assignment is a selection of one choice index per laddered attribute.
// Index 0 is the user's preferred value; higher indices are progressively
// degraded.
type Assignment []int

// NewAssignment returns the all-preferred assignment (every index 0).
func (ld *Ladder) NewAssignment() Assignment { return make(Assignment, len(ld.Attrs)) }

// Clone copies the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	copy(c, a)
	return c
}

// Level materializes the assignment as a concrete Level.
func (ld *Ladder) Level(a Assignment) Level {
	l := make(Level, len(ld.Attrs))
	for i := range ld.Attrs {
		l[ld.Attrs[i].Key] = ld.Attrs[i].Choices[a[i]]
	}
	return l
}

// AssignmentOf inverts Level: it locates each attribute's value in the
// ladder's candidate list and returns the corresponding choice indices.
// It fails when the level misses a laddered attribute or carries a value
// the ladder does not contain — a level produced by Level(a) over the
// same ladder always round-trips exactly. The mid-session adaptation
// engine uses this to re-anchor an admission-time level (a map, the
// protocol's boundary type) onto the slot-indexed fast path.
func (ld *Ladder) AssignmentOf(l Level) (Assignment, error) {
	a := make(Assignment, len(ld.Attrs))
	for i := range ld.Attrs {
		la := &ld.Attrs[i]
		v, ok := l[la.Key]
		if !ok {
			return nil, fmt.Errorf("qos: ladder: level carries no value for attribute %v", la.Key)
		}
		found := false
		for ci, c := range la.Choices {
			if c.Equal(v) {
				a[i] = ci
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("qos: ladder: value %v for attribute %v is not a ladder candidate", v, la.Key)
		}
	}
	return a, nil
}

// CanDegrade reports whether attribute i has a further degradation step.
func (ld *Ladder) CanDegrade(a Assignment, i int) bool {
	return a[i]+1 < len(ld.Attrs[i].Choices)
}

// Combinations returns the total number of candidate levels in the ladder
// (the size of the exhaustive search space), saturating at math.MaxInt64.
func (ld *Ladder) Combinations() int64 {
	total := int64(1)
	for i := range ld.Attrs {
		c := int64(len(ld.Attrs[i].Choices))
		if total > math.MaxInt64/c {
			return math.MaxInt64
		}
		total *= c
	}
	return total
}
