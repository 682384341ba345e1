package qos

import (
	"fmt"
	"math"
)

// Evaluator computes the multi-attribute proposal evaluation of Section 6:
//
//	distance = sum_k w_k * dist(Q_k)                  (eq. 2)
//	w_k      = (n-k+1)/n                              (eq. 3)
//	dist(Qk) = sum_i w_i * dif(Prop_ki, Pref_ki)      (eq. 4)
//
// with dif the normalized value difference (continuous domains) or the
// normalized quality-index difference (discrete domains) of eq. 5. The
// paper leaves the intra-dimension attribute weights w_i implicit; we use
// the formula analogous to eq. 3, w_i = (attr_k-i+1)/attr_k.
//
// The paper's eq. 5 is a signed difference; a proposal strictly better
// than the preference would produce a negative term. The evaluator uses
// the absolute difference so that distance is a metric and the best
// proposal (lowest evaluation) is the one closest to the preferences in
// either direction.
type Evaluator struct {
	Spec *Spec
	Req  *Request
}

// NewEvaluator builds an evaluator after validating the request against
// the spec.
func NewEvaluator(spec *Spec, req *Request) (*Evaluator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := req.Validate(spec); err != nil {
		return nil, err
	}
	return &Evaluator{Spec: spec, Req: req}, nil
}

// Distance evaluates a proposal level against the user's preferences.
// The proposal must be admissible (Req.Admits and spec dependencies);
// inadmissible proposals return an error, mirroring the paper's rule that
// only admissible proposals are evaluated.
func (e *Evaluator) Distance(prop Level) (float64, error) {
	if !e.Req.Admits(prop) {
		return 0, fmt.Errorf("qos: proposal %v is not admissible for request %q", prop, e.Req.Service)
	}
	if ok, di := e.Spec.DepsSatisfied(prop); !ok {
		return 0, fmt.Errorf("qos: proposal %v violates dependency %d of spec %q", prop, di, e.Spec.Name)
	}
	n := len(e.Req.Dims)
	var total float64
	for k, dp := range e.Req.Dims {
		wk := RankWeight(k+1, n) // eq. 3; k is 0-based here
		ak := len(dp.Attrs)
		var dd float64
		for i, ap := range dp.Attrs {
			wi := RankWeight(i+1, ak)
			key := AttrKey{Dim: dp.Dim, Attr: ap.Attr}
			pref, ok := e.Req.PreferredValue(key)
			if !ok {
				return 0, fmt.Errorf("qos: request %q carries no preference for attribute %v", e.Req.Service, key)
			}
			dif, err := e.Dif(key, prop[key], pref)
			if err != nil {
				return 0, err
			}
			dd += wi * dif
		}
		total += wk * dd
	}
	return total, nil
}

// Dif computes eq. 5 for one attribute: the degree of acceptability of the
// proposed value compared to the preferred one, normalized to [0,1] over
// the attribute's domain, in absolute value.
func (e *Evaluator) Dif(key AttrKey, prop, pref Value) (float64, error) {
	attr := e.Spec.Attr(key)
	if attr == nil {
		return 0, fmt.Errorf("qos: unknown attribute %v", key)
	}
	w := attr.Domain.Width()
	if w == 0 {
		return 0, nil
	}
	var d float64
	if attr.Domain.Kind == Continuous {
		d = (prop.Num() - pref.Num()) / w
	} else {
		pi := attr.Domain.IndexOf(prop)
		qi := attr.Domain.IndexOf(pref)
		if pi < 0 || qi < 0 {
			return 0, fmt.Errorf("qos: value outside discrete domain of %v", key)
		}
		d = float64(pi-qi) / w
	}
	return math.Abs(d), nil
}

// MaxDistance returns an upper bound of the evaluation value for this
// request: the distance each dif term would contribute if it were 1.
// Useful for normalizing distances into [0,1] utilities.
func (e *Evaluator) MaxDistance() float64 {
	n := len(e.Req.Dims)
	var total float64
	for k, dp := range e.Req.Dims {
		wk := RankWeight(k+1, n)
		ak := len(dp.Attrs)
		for i := range dp.Attrs {
			total += wk * RankWeight(i+1, ak)
		}
	}
	return total
}

// Utility maps a distance into a [0,1] utility (1 = exactly the preferred
// level), convenient for reporting "user perceived utility".
func (e *Evaluator) Utility(distance float64) float64 {
	m := e.MaxDistance()
	if m == 0 {
		return 1
	}
	u := 1 - distance/m
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}
