package qos

// PenaltyFunc computes the penalty contributed by serving one attribute
// away from the user's preferred value (Section 5, eq. 1). choice is the
// 0-based index of the served value in the attribute's ladder (0 =
// preferred), steps is the total number of choices, and weight is the
// attribute's combined importance weight w_k*w_i. The paper only requires
// that the penalty "increases with the distance for user's preferred
// value"; the default is the weighted normalized step distance.
type PenaltyFunc func(choice, steps int, weight float64) float64

// DefaultPenalty is the weighted normalized degradation depth:
// weight * choice/(steps-1). It is 0 at the preferred value and reaches
// the full attribute weight at the deepest degradation.
func DefaultPenalty(choice, steps int, weight float64) float64 {
	if steps <= 1 || choice <= 0 {
		return 0
	}
	return weight * float64(choice) / float64(steps-1)
}

// Reward computes the local reward of eq. 1 for an assignment over the
// ladder: r = n when every attribute of every dimension is served at the
// user's first choice, otherwise r = n - sum(penalty_j). n is the number
// of QoS dimensions in the request. penalty defaults to DefaultPenalty
// when nil.
func Reward(ld *Ladder, a Assignment, penalty PenaltyFunc) float64 {
	if penalty == nil {
		penalty = DefaultPenalty
	}
	if len(ld.Attrs) == 0 {
		return 0
	}
	n := float64(ld.Attrs[0].DimCount)
	var sum float64
	for i := range ld.Attrs {
		la := &ld.Attrs[i]
		sum += penalty(a[i], len(la.Choices), la.Weight())
	}
	return n - sum
}
