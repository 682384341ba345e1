package qos

import (
	"fmt"
	"math"
)

// DomainKind distinguishes discrete from continuous attribute domains.
// The paper defines Domain = {continuous, discrete}.
type DomainKind uint8

const (
	// Discrete domains enumerate their admissible values in a canonical
	// order; the position of a value in that order is its quality index
	// (after Lee et al., RTSS'99), used by eq. 5 for discrete attributes.
	Discrete DomainKind = iota
	// Continuous domains are closed numeric intervals [Min, Max];
	// eq. 5 normalizes differences by the interval width.
	Continuous
)

// String returns the paper's name for the domain kind.
func (k DomainKind) String() string {
	if k == Discrete {
		return "discrete"
	}
	return "continuous"
}

// Domain describes the set of admissible values of one attribute
// (Val = {Type, Domain} in the paper's representation).
type Domain struct {
	Kind DomainKind
	Type ValueType

	// Values holds the canonical ordered enumeration of a discrete
	// domain. The index of a value in this slice is its quality index.
	Values []Value

	// Min and Max bound a continuous domain. Only numeric types may be
	// continuous.
	Min, Max float64
}

// DiscreteInts builds a discrete integer domain from the given ordered
// values.
func DiscreteInts(vs ...int64) Domain {
	d := Domain{Kind: Discrete, Type: TypeInt, Values: make([]Value, len(vs))}
	for i, v := range vs {
		d.Values[i] = Int(v)
	}
	return d
}

// DiscreteStrings builds a discrete string domain from the given ordered
// values.
func DiscreteStrings(vs ...string) Domain {
	d := Domain{Kind: Discrete, Type: TypeString, Values: make([]Value, len(vs))}
	for i, v := range vs {
		d.Values[i] = Str(v)
	}
	return d
}

// IntRange builds a continuous integer domain covering [min, max].
func IntRange(min, max int64) Domain {
	return Domain{Kind: Continuous, Type: TypeInt, Min: float64(min), Max: float64(max)}
}

// Validate checks internal consistency of the domain.
func (d Domain) Validate() error {
	switch d.Kind {
	case Discrete:
		if len(d.Values) == 0 {
			return fmt.Errorf("qos: discrete domain has no values")
		}
		for i, v := range d.Values {
			if v.Type != d.Type {
				return fmt.Errorf("qos: discrete domain value %d has type %v, domain declares %v", i, v.Type, d.Type)
			}
			for j := 0; j < i; j++ {
				if d.Values[j].Equal(v) {
					return fmt.Errorf("qos: discrete domain repeats value %v", v)
				}
			}
		}
	case Continuous:
		if d.Type == TypeString {
			return fmt.Errorf("qos: continuous domains must be numeric")
		}
		if math.IsNaN(d.Min) || math.IsNaN(d.Max) || d.Min > d.Max {
			return fmt.Errorf("qos: continuous domain has invalid bounds [%v, %v]", d.Min, d.Max)
		}
	default:
		return fmt.Errorf("qos: unknown domain kind %d", d.Kind)
	}
	return nil
}

// Contains reports whether v is an admissible value of the domain.
func (d Domain) Contains(v Value) bool {
	switch d.Kind {
	case Discrete:
		return d.IndexOf(v) >= 0
	case Continuous:
		if v.Type != d.Type || !v.IsNumeric() {
			return false
		}
		n := v.Num()
		return n >= d.Min && n <= d.Max
	}
	return false
}

// IndexOf returns the quality index (position in the canonical ordering)
// of v within a discrete domain, or -1 when v is not a member or the
// domain is continuous.
func (d Domain) IndexOf(v Value) int {
	if d.Kind != Discrete {
		return -1
	}
	for i, dv := range d.Values {
		if dv.Equal(v) {
			return i
		}
	}
	return -1
}

// Width returns the normalization denominator used by eq. 5:
// max(Qk)-min(Qk) for continuous domains and length(Qk)-1 for discrete
// ones. Degenerate single-point domains yield width 0; the evaluator
// treats any two values in such a domain as distance 0.
func (d Domain) Width() float64 {
	if d.Kind == Continuous {
		return d.Max - d.Min
	}
	return float64(len(d.Values) - 1)
}
