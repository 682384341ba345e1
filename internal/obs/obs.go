// Package obs is the unified counter registry of the observability
// subsystem (DESIGN.md §13). Components that count things — protocol
// retransmissions, duplicate suppressions, stale-release refusals,
// freeze events, reclaimed reservations, TCP endpoint inbox overflows —
// own a zero-value-usable Counter and register it under a canonical
// dotted name. A Registry aggregates every registered instance of a
// name into one Snapshot, and Snapshots carry the only merge primitives
// the rest of the system is allowed to use. That is the point of the
// package: before it existed, every layer that folded statistics
// (session.Stats.Merge, the fabric city fold, the qosim chaos report)
// re-listed each counter by hand, and a counter added to one path was
// silently dropped by the others. Registering once is now sufficient to
// appear in every snapshot, every merge, and every report.
//
// Counters are monotonic and atomic, so a single instance may be shared
// by the TCP runtime's read loops and timer goroutines; the simulator's
// single-threaded use pays only the uncontended cost.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic event counter. The zero value is ready to use;
// share instances by pointer (a Counter must not be copied after first
// use). Load is nil-safe so optional counters read as zero.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value; a nil Counter reads 0.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry binds canonical names to counter instances. Several counters
// may register under one name — one per node, one per provider — and
// Snapshot sums them, which is exactly the aggregation every report
// used to spell out by hand. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu    sync.Mutex
	names []string // first-registration order, for Each
	by    map[string][]*Counter
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string][]*Counter)}
}

// Register adds an externally owned counter instance under name and
// returns it. Registering the same instance twice under one name is an
// error (it would double-count), enforced by panic: registration is
// wiring-time code where a duplicate is a bug, not an input.
func (r *Registry) Register(name string, c *Counter) *Counter {
	if c == nil {
		panic(fmt.Sprintf("obs: Register(%q, nil)", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, got := range r.by[name] {
		if got == c {
			panic(fmt.Sprintf("obs: counter registered twice under %q", name))
		}
	}
	if _, seen := r.by[name]; !seen {
		r.names = append(r.names, name)
	}
	r.by[name] = append(r.by[name], c)
	return c
}

// Counter returns the registry-owned shared counter for name, creating
// and registering it on first use. Use this for counts that are
// naturally global to the registry's scope; use Register for per-node
// instances the registry should sum.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cs := r.by[name]; len(cs) > 0 {
		return cs[0]
	}
	c := &Counter{}
	r.names = append(r.names, name)
	r.by[name] = []*Counter{c}
	return c
}

// Snapshot sums every registered instance per name. Names registered
// but never incremented appear with value 0, so snapshots of equally
// wired systems are comparable key-for-key.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := make(Snapshot, len(r.names))
	for name, cs := range r.by {
		var total uint64
		for _, c := range cs {
			total += c.Load()
		}
		s[name] = total
	}
	return s
}

// Snapshot is a point-in-time reading of a registry: name → summed
// value. Snapshots are plain values; Merge and Diff return fresh maps
// and never mutate their operands, so a Snapshot stored in a stats
// document can be shared by any number of copies without aliasing
// hazards.
type Snapshot map[string]uint64

// Get returns the value for name (0 when absent), so callers need not
// distinguish "never registered" from "never fired".
func (s Snapshot) Get(name string) uint64 { return s[name] }

// Merge returns a new snapshot with the union of keys and summed
// values. Neither operand is modified; merging is commutative and
// associative with the empty snapshot as identity, which is what makes
// the fabric's shard fold order-insensitive (the fold still runs in
// ascending shard order for byte-stable reports).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := make(Snapshot, len(s)+len(o))
	for k, v := range s {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

// Diff returns a new snapshot of s minus prev per key (union of keys).
// Counters are monotonic, so over snapshots of one registry taken in
// order the difference never underflows; a key that would go negative
// (snapshots of different systems) is clamped to 0.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s)+len(prev))
	for k, v := range s {
		if p := prev[k]; v >= p {
			out[k] = v - p
		} else {
			out[k] = 0
		}
	}
	for k := range prev {
		if _, ok := s[k]; !ok {
			out[k] = 0
		}
	}
	return out
}

// Names returns the snapshot's keys sorted, the canonical iteration
// order for every rendered report.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// String renders "name=v name=v" in sorted name order.
func (s Snapshot) String() string {
	var b strings.Builder
	for i, k := range s.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, s[k])
	}
	return b.String()
}
