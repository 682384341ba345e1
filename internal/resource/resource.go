// Package resource implements the resource model of the paper's Section 4:
// limited hardware/software quantities supplied by a node (CPU time,
// memory, I/O and network bandwidth, energy) and the Resource Managers
// that grant reservations against them. A node's QoS Provider maps QoS
// levels to resource vectors and asks the managers to reserve them
// (Section 5). The paper's one Resource Manager per resource is one Kind
// of a node's Set here: each kind keeps its own capacity, running
// reserved sum and admission test, and the Set holds them side by side in
// one ledger so a vector demand is granted or refused as a whole.
package resource

import (
	"fmt"
	"strings"
)

// Kind enumerates the resource kinds of the simulated devices.
type Kind uint8

const (
	// CPU is processing capacity in MIPS-like units; a node's capacity
	// reflects its device class and current congestion.
	CPU Kind = iota
	// Memory is RAM in megabytes.
	Memory
	// NetBW is wireless link bandwidth in kilobits per second.
	NetBW
	// Energy is battery budget in joule-like units reserved for a task's
	// lifetime.
	Energy
	// Storage is persistent buffer space in megabytes.
	Storage

	// NumKinds is the number of resource kinds; Vector is indexed by Kind.
	NumKinds = 5
)

var kindNames = [NumKinds]string{"cpu", "mem", "netbw", "energy", "storage"}

// String returns the short name of the kind.
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Kinds lists all resource kinds in index order.
func Kinds() []Kind {
	return []Kind{CPU, Memory, NetBW, Energy, Storage}
}

// Vector is a fixed-size resource quantity vector, indexed by Kind.
// The zero value is the empty demand.
type Vector [NumKinds]float64

// V builds a vector from (kind, amount) pairs.
func V(pairs ...KV) Vector {
	var v Vector
	for _, p := range pairs {
		v[p.K] = p.A
	}
	return v
}

// KV is a (kind, amount) pair for the V constructor.
type KV struct {
	K Kind
	A float64
}

// Add returns v + o.
func (v Vector) Add(o Vector) Vector {
	for i := range v {
		v[i] += o[i]
	}
	return v
}

// Sub returns v - o.
func (v Vector) Sub(o Vector) Vector {
	for i := range v {
		v[i] -= o[i]
	}
	return v
}

// Scale returns v * f.
func (v Vector) Scale(f float64) Vector {
	for i := range v {
		v[i] *= f
	}
	return v
}

// Fits reports whether v <= o component-wise.
func (v Vector) Fits(o Vector) bool {
	for i := range v {
		if v[i] > o[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every component is zero.
func (v Vector) IsZero() bool {
	for i := range v {
		if v[i] != 0 {
			return false
		}
	}
	return true
}

// Nonnegative reports whether every component is >= 0; demand vectors and
// capacities must be nonnegative.
func (v Vector) Nonnegative() bool {
	for i := range v {
		if v[i] < 0 {
			return false
		}
	}
	return true
}

// String renders only the nonzero components, e.g. "{cpu:120 mem:32}".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := range v {
		if v[i] == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%s:%g", Kind(i), v[i])
	}
	b.WriteByte('}')
	return b.String()
}

// InsufficientError reports a reservation that could not be granted.
type InsufficientError struct {
	Kind Kind
	Want float64
	Have float64
}

// Error implements the error interface.
func (e *InsufficientError) Error() string {
	return fmt.Sprintf("resource: insufficient %s: want %g, have %g", e.Kind, e.Want, e.Have)
}
