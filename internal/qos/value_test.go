package qos

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v       Value
		typ     ValueType
		numeric bool
		num     float64
		str     string
	}{
		{Int(42), TypeInt, true, 42, "42"},
		{Int(-7), TypeInt, true, -7, "-7"},
		{Float(2.5), TypeFloat, true, 2.5, "2.5"},
		{Float(0), TypeFloat, true, 0, "0"},
		{Str("hq"), TypeString, false, math.NaN(), "hq"},
	}
	for _, c := range cases {
		if c.v.Type != c.typ {
			t.Errorf("%v: type = %v, want %v", c.v, c.v.Type, c.typ)
		}
		if c.v.IsNumeric() != c.numeric {
			t.Errorf("%v: IsNumeric = %v, want %v", c.v, c.v.IsNumeric(), c.numeric)
		}
		if c.numeric && c.v.Num() != c.num {
			t.Errorf("%v: Num = %v, want %v", c.v, c.v.Num(), c.num)
		}
		if !c.numeric && !math.IsNaN(c.v.Num()) {
			t.Errorf("%v: Num should be NaN for strings", c.v)
		}
		if c.v.String() != c.str {
			t.Errorf("%v: String = %q, want %q", c.v, c.v.String(), c.str)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(3).Equal(Int(3)) {
		t.Error("Int(3) != Int(3)")
	}
	if Int(3).Equal(Int(4)) {
		t.Error("Int(3) == Int(4)")
	}
	if Int(3).Equal(Float(3)) {
		t.Error("cross-type equality must be false: Int(3) == Float(3)")
	}
	if !Str("a").Equal(Str("a")) || Str("a").Equal(Str("b")) {
		t.Error("string equality broken")
	}
	if !Float(1.5).Equal(Float(1.5)) || Float(1.5).Equal(Float(1.6)) {
		t.Error("float equality broken")
	}
}

func TestValueEqualReflexiveAndSymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if !va.Equal(va) {
			return false
		}
		return va.Equal(vb) == vb.Equal(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueTypeString(t *testing.T) {
	if TypeInt.String() != "integer" || TypeFloat.String() != "float" || TypeString.String() != "string" {
		t.Error("ValueType names do not match the paper's Type = {integer, float, string}")
	}
	if ValueType(99).String() == "" {
		t.Error("unknown type should still render")
	}
}

func TestDomainValidate(t *testing.T) {
	valid := []Domain{
		DiscreteInts(1, 3, 8, 16, 24),
		DiscreteFloats(0.5, 1.5),
		DiscreteStrings("hq", "main", "fast"),
		IntRange(1, 30),
		FloatRange(0, 1),
		FloatRange(5, 5), // degenerate point interval is legal
	}
	for i, d := range valid {
		if err := d.Validate(); err != nil {
			t.Errorf("valid domain %d rejected: %v", i, err)
		}
	}
	invalid := []Domain{
		{Kind: Discrete, Type: TypeInt},                                  // empty
		{Kind: Discrete, Type: TypeInt, Values: []Value{Int(1), Int(1)}}, // dup
		{Kind: Discrete, Type: TypeInt, Values: []Value{Float(1)}},       // type mismatch
		{Kind: Continuous, Type: TypeString, Min: 0, Max: 1},             // string continuous
		{Kind: Continuous, Type: TypeFloat, Min: 2, Max: 1},              // inverted
		{Kind: Continuous, Type: TypeFloat, Min: math.NaN(), Max: 1},     // NaN
		{Kind: DomainKind(9), Type: TypeInt, Values: []Value{Int(1)}},    // bad kind
	}
	for i, d := range invalid {
		if err := d.Validate(); err == nil {
			t.Errorf("invalid domain %d accepted", i)
		}
	}
}

func TestDomainContainsAndIndex(t *testing.T) {
	d := DiscreteInts(1, 3, 8, 16, 24)
	if !d.Contains(Int(8)) || d.Contains(Int(9)) {
		t.Error("discrete Contains broken")
	}
	if d.IndexOf(Int(1)) != 0 || d.IndexOf(Int(24)) != 4 || d.IndexOf(Int(2)) != -1 {
		t.Error("quality index positions broken")
	}
	c := IntRange(1, 30)
	if !c.Contains(Int(1)) || !c.Contains(Int(30)) || c.Contains(Int(31)) || c.Contains(Int(0)) {
		t.Error("continuous Contains broken at bounds")
	}
	if c.Contains(Str("x")) {
		t.Error("continuous domain contains a string")
	}
	if c.IndexOf(Int(5)) != -1 {
		t.Error("IndexOf must be -1 for continuous domains")
	}
	// Type-strict: float domain does not contain ints.
	fd := FloatRange(0, 1)
	if fd.Contains(Int(0)) {
		t.Error("float domain must not contain int-typed values")
	}
}

func TestDomainWidth(t *testing.T) {
	if w := DiscreteInts(1, 3, 8, 16, 24).Width(); w != 4 {
		t.Errorf("discrete width = %v, want 4 (length-1)", w)
	}
	if w := IntRange(1, 30).Width(); w != 29 {
		t.Errorf("continuous width = %v, want 29 (max-min)", w)
	}
	if w := DiscreteInts(7).Width(); w != 0 {
		t.Errorf("single-value domain width = %v, want 0", w)
	}
}

func TestDomainKindString(t *testing.T) {
	if Discrete.String() != "discrete" || Continuous.String() != "continuous" {
		t.Error("DomainKind names do not match the paper's Domain = {continuous, discrete}")
	}
}

// DiscreteFloats builds a discrete float domain from the given ordered
// values.
func DiscreteFloats(vs ...float64) Domain {
	d := Domain{Kind: Discrete, Type: TypeFloat, Values: make([]Value, len(vs))}
	for i, v := range vs {
		d.Values[i] = Float(v)
	}
	return d
}

// FloatRange builds a continuous float domain covering [min, max].
func FloatRange(min, max float64) Domain {
	return Domain{Kind: Continuous, Type: TypeFloat, Min: min, Max: max}
}
