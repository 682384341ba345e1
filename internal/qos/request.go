package qos

import (
	"fmt"
	"math"
)

// ValueSet is one entry in a user's ordered list of acceptable values for
// an attribute (Section 3.1). It is either a single discrete value or a
// continuous range written from the preferred endpoint to the least
// preferred one, as in the paper's surveillance example
// "frame rate: [10,...,5], [4,...,1]".
type ValueSet struct {
	Continuous bool
	// Single holds the value of a discrete entry.
	Single Value
	// From and To bound a continuous entry; From is the preferred
	// endpoint. From may be greater or smaller than To.
	From, To float64
}

// One builds a discrete single-value entry.
func One(v Value) ValueSet { return ValueSet{Single: v} }

// Span builds a continuous entry preferring from and degrading toward to.
func Span(from, to float64) ValueSet { return ValueSet{Continuous: true, From: from, To: to} }

// Contains reports whether v falls in the set.
func (vs ValueSet) Contains(v Value) bool {
	if !vs.Continuous {
		return vs.Single.Equal(v)
	}
	if !v.IsNumeric() {
		return false
	}
	lo, hi := vs.From, vs.To
	if lo > hi {
		lo, hi = hi, lo
	}
	n := v.Num()
	return n >= lo && n <= hi
}

// String renders the entry in the paper's request notation.
func (vs ValueSet) String() string {
	if !vs.Continuous {
		return vs.Single.String()
	}
	return fmt.Sprintf("[%g,...,%g]", vs.From, vs.To)
}

// AttrPref is the user's preference for one attribute: acceptable value
// sets in decreasing order of preference.
type AttrPref struct {
	Attr string
	Sets []ValueSet
}

// DimPref is the user's preference for one dimension: attributes in
// decreasing order of importance.
type DimPref struct {
	Dim   string
	Attrs []AttrPref
}

// Request is a service request (Section 3.1): dimensions in decreasing
// order of importance, each with ordered attributes and ordered accepted
// values. Lower index == more important / more preferred.
type Request struct {
	Service string
	Dims    []DimPref
}

// Validate checks the request against a spec: every referenced dimension
// and attribute must exist, every discrete value must belong to the
// attribute's domain, and every continuous span must lie within the
// domain's interval.
func (r *Request) Validate(spec *Spec) error {
	if len(r.Dims) == 0 {
		return fmt.Errorf("qos: request %q names no dimensions", r.Service)
	}
	seenDim := make(map[string]bool, len(r.Dims))
	for _, dp := range r.Dims {
		dim := spec.Dimension(dp.Dim)
		if dim == nil {
			return fmt.Errorf("qos: request %q: unknown dimension %q", r.Service, dp.Dim)
		}
		if seenDim[dp.Dim] {
			return fmt.Errorf("qos: request %q: duplicate dimension %q", r.Service, dp.Dim)
		}
		seenDim[dp.Dim] = true
		if len(dp.Attrs) == 0 {
			return fmt.Errorf("qos: request %q: dimension %q lists no attributes", r.Service, dp.Dim)
		}
		seenAttr := make(map[string]bool, len(dp.Attrs))
		for _, ap := range dp.Attrs {
			attr := dim.Attribute(ap.Attr)
			if attr == nil {
				return fmt.Errorf("qos: request %q: unknown attribute %s/%s", r.Service, dp.Dim, ap.Attr)
			}
			if seenAttr[ap.Attr] {
				return fmt.Errorf("qos: request %q: duplicate attribute %s/%s", r.Service, dp.Dim, ap.Attr)
			}
			seenAttr[ap.Attr] = true
			if len(ap.Sets) == 0 {
				return fmt.Errorf("qos: request %q: attribute %s/%s lists no acceptable values", r.Service, dp.Dim, ap.Attr)
			}
			for si, set := range ap.Sets {
				if err := validateSet(attr, set); err != nil {
					return fmt.Errorf("qos: request %q: %s/%s entry %d: %w", r.Service, dp.Dim, ap.Attr, si, err)
				}
			}
		}
	}
	return nil
}

func validateSet(attr *Attribute, set ValueSet) error {
	if set.Continuous {
		if attr.Domain.Kind != Continuous {
			return fmt.Errorf("continuous span over discrete domain")
		}
		lo, hi := set.From, set.To
		if lo > hi {
			lo, hi = hi, lo
		}
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return fmt.Errorf("span has NaN bound")
		}
		if lo < attr.Domain.Min || hi > attr.Domain.Max {
			return fmt.Errorf("span [%g,%g] outside domain [%g,%g]", lo, hi, attr.Domain.Min, attr.Domain.Max)
		}
		return nil
	}
	if !attr.Domain.Contains(set.Single) {
		return fmt.Errorf("value %v not in attribute domain", set.Single)
	}
	return nil
}

// Admits reports whether the level satisfies the request: every requested
// attribute is present and its value falls in one of the accepted sets.
// Levels may carry extra attributes; those are ignored. A proposal is
// admissible (Section 6) iff Admits returns true and the spec's
// dependencies hold.
func (r *Request) Admits(l Level) bool {
	for _, dp := range r.Dims {
		for _, ap := range dp.Attrs {
			v, ok := l[AttrKey{Dim: dp.Dim, Attr: ap.Attr}]
			if !ok {
				return false
			}
			accepted := false
			for _, set := range ap.Sets {
				if set.Contains(v) {
					accepted = true
					break
				}
			}
			if !accepted {
				return false
			}
		}
	}
	return true
}

// Preferred returns the user's most preferred level: for every requested
// attribute, the first entry of the first accepted set (the preferred
// endpoint for continuous spans).
func (r *Request) Preferred() Level {
	l := make(Level)
	for _, dp := range r.Dims {
		for _, ap := range dp.Attrs {
			set := ap.Sets[0]
			k := AttrKey{Dim: dp.Dim, Attr: ap.Attr}
			if set.Continuous {
				l[k] = Float(set.From)
			} else {
				l[k] = set.Single
			}
		}
	}
	return l
}

// PreferredValue returns the user's most preferred value for the given
// attribute and whether the attribute is part of the request.
func (r *Request) PreferredValue(k AttrKey) (Value, bool) {
	for _, dp := range r.Dims {
		if dp.Dim != k.Dim {
			continue
		}
		for _, ap := range dp.Attrs {
			if ap.Attr != k.Attr {
				continue
			}
			set := ap.Sets[0]
			if set.Continuous {
				return Float(set.From), true
			}
			return set.Single, true
		}
	}
	return Value{}, false
}

// Equal reports whether two requests are structurally identical: same
// service, same dimension/attribute order, same accepted sets. It is
// the allocation-free counterpart of reflect.DeepEqual used by cache
// validation on the CFP hot path.
func (r *Request) Equal(o *Request) bool {
	if r.Service != o.Service || len(r.Dims) != len(o.Dims) {
		return false
	}
	for i := range r.Dims {
		dp, op := &r.Dims[i], &o.Dims[i]
		if dp.Dim != op.Dim || len(dp.Attrs) != len(op.Attrs) {
			return false
		}
		for j := range dp.Attrs {
			ap, bp := &dp.Attrs[j], &op.Attrs[j]
			if ap.Attr != bp.Attr || len(ap.Sets) != len(bp.Sets) {
				return false
			}
			for k := range ap.Sets {
				as, bs := ap.Sets[k], bp.Sets[k]
				if as.Continuous != bs.Continuous {
					return false
				}
				if as.Continuous {
					if as.From != bs.From || as.To != bs.To {
						return false
					}
				} else if !as.Single.Equal(bs.Single) {
					return false
				}
			}
		}
	}
	return true
}
