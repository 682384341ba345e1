// Package task models the paper's services and tasks (Section 4.1): a
// service is a set of (for now) independent tasks, each carrying the
// user's QoS preferences and a demand model mapping concrete QoS levels to
// resource requirements. The paper assumes "applications make a reasonable
// accurate analysis of their resource requirements, made a priori through
// resource monitoring tools"; DemandModel is that a-priori analysis.
package task

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/qos"
	"repro/internal/resource"
)

// Task is one independent unit of a service, negotiated and allocated
// individually during coalition formation.
type Task struct {
	ID string
	// Request carries the user's preference-ordered QoS constraints for
	// this task.
	Request qos.Request
	// Demand maps QoS levels to resource requirements.
	Demand DemandModel
	// InBytes and OutBytes size the data that must be shipped to and
	// from the executing node; they drive the communication-cost term of
	// proposal selection.
	InBytes, OutBytes int64
	// DemandRef, when set, names the demand model in the shared catalog
	// instead of the default per-service "service/task" reference. Open
	// system sessions instantiated from one template set a shared
	// reference so every provider compiles the (spec, demand) pair once
	// across thousands of arriving services rather than once per
	// session. Tasks sharing a reference must share an identical demand
	// model (the catalog keeps the first registration).
	DemandRef string
}

// Ref returns the catalog demand reference of the task within the given
// service: the shared DemandRef when set, the per-service "svc/task"
// name otherwise.
func (t *Task) Ref(svcID string) string {
	if t.DemandRef != "" {
		return t.DemandRef
	}
	return svcID + "/" + t.ID
}

// Service is a user-requested service: a set of independent tasks plus
// the shared QoS spec they are expressed against.
type Service struct {
	ID    string
	Spec  *qos.Spec
	Tasks []*Task
}

// Validate checks the service: a nonempty ID, a valid spec, and every
// task request valid against the spec with a demand model attached.
func (s *Service) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("task: service has empty ID")
	}
	if s.Spec == nil {
		return fmt.Errorf("task: service %q has no spec", s.ID)
	}
	if err := s.Spec.Validate(); err != nil {
		return err
	}
	if len(s.Tasks) == 0 {
		return fmt.Errorf("task: service %q has no tasks", s.ID)
	}
	seen := make(map[string]bool, len(s.Tasks))
	for _, t := range s.Tasks {
		if t.ID == "" {
			return fmt.Errorf("task: service %q contains a task with empty ID", s.ID)
		}
		if seen[t.ID] {
			return fmt.Errorf("task: service %q duplicates task %q", s.ID, t.ID)
		}
		seen[t.ID] = true
		if t.Demand == nil {
			return fmt.Errorf("task: %s/%s has no demand model", s.ID, t.ID)
		}
		if err := t.Request.Validate(s.Spec); err != nil {
			return fmt.Errorf("task: %s/%s: %w", s.ID, t.ID, err)
		}
		if t.InBytes < 0 || t.OutBytes < 0 {
			return fmt.Errorf("task: %s/%s has negative data size", s.ID, t.ID)
		}
	}
	return nil
}

// Task returns the task with the given ID, or nil.
func (s *Service) Task(id string) *Task {
	for _, t := range s.Tasks {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// DataBytes returns the total data movement of the task (input + output).
func (t *Task) DataBytes() int64 { return t.InBytes + t.OutBytes }

// DemandModel maps a concrete QoS level to the resource vector a node
// must reserve to serve it.
type DemandModel interface {
	// Demand returns the resource requirement of serving level under the
	// given spec. Implementations must be deterministic and treat level
	// as read-only.
	Demand(spec *qos.Spec, level qos.Level) (resource.Vector, error)
}

// SlotDemandModel is the optional fast path of DemandModel: models that
// decompose over individual attributes can precompute, once per ladder,
// the demand contribution of every (slot, choice) pair. The degradation
// heuristic then re-evaluates demand per step with a handful of vector
// adds on the compiled table instead of materializing a Level map and
// walking the model on every iteration. Models that cannot decompose
// (or cannot prove the decomposition safe) return an error; callers
// fall back to Demand.
type SlotDemandModel interface {
	DemandModel
	CompileDemand(spec *qos.Spec, ld *qos.Ladder) (*DemandTable, error)
}

// DemandTable is a compiled per-slot demand decomposition:
// demand(a) = Base + sum over slots i of Contrib[i][a[i]], with the
// sum taken in canonical (dim, attr) key order via order so that the
// result is bit-identical to LinearDemand.Demand on the materialized
// level — by construction, for any coefficients, not only
// exactly-representable ones.
type DemandTable struct {
	Base    resource.Vector
	Contrib [][]resource.Vector
	// order lists slot indices sorted by attribute key: the canonical
	// summation order shared with the level-by-level path.
	order []int
}

// Demand evaluates the table on an assignment, allocation-free.
func (t *DemandTable) Demand(a qos.Assignment) resource.Vector {
	out := t.Base
	for _, i := range t.order {
		out = out.Add(t.Contrib[i][a[i]])
	}
	return out
}

// CompileDemand implements SlotDemandModel: LinearDemand decomposes
// exactly (base + per-attribute coefficient * magnitude). Compilation
// fails if any ladder choice has no magnitude, or if the base or any
// contribution has a negative component: with everything nonnegative no
// evaluated demand can ever go negative, so the table needs no
// per-level negativity check, and the (exotic) mixed-sign models keep
// the level-by-level path whose Demand rejects negative vectors
// exactly where they occur.
func (d *LinearDemand) CompileDemand(spec *qos.Spec, ld *qos.Ladder) (*DemandTable, error) {
	if !d.Base.Nonnegative() {
		return nil, fmt.Errorf("task: linear demand base %v has negative component", d.Base)
	}
	t := &DemandTable{Base: d.Base, Contrib: make([][]resource.Vector, ld.Len())}
	keys := make([]qos.AttrKey, 0, ld.Len())
	for i := range ld.Attrs {
		la := &ld.Attrs[i]
		coef, ok := d.Coef[la.Key]
		t.Contrib[i] = make([]resource.Vector, len(la.Choices))
		if !ok {
			continue // attribute costs nothing; excluded from the sum
		}
		keys = append(keys, la.Key)
		for ci, v := range la.Choices {
			mag, err := magnitude(spec, la.Key, v)
			if err != nil {
				return nil, err
			}
			c := coef.Scale(mag)
			if !c.Nonnegative() {
				return nil, fmt.Errorf("task: contribution %v of %v is negative; keeping the level-by-level path", c, la.Key)
			}
			t.Contrib[i][ci] = c
		}
	}
	// Sum contributing slots in the same canonical key order as Demand.
	sortKeys(keys)
	for _, key := range keys {
		t.order = append(t.order, ld.AttrIndex(key))
	}
	return t, nil
}

// LinearDemand is base + sum over attributes of coefficient * magnitude,
// where magnitude is the attribute's numeric value for numeric attributes
// and the quality-index position for string attributes. It captures the
// codec-style trade-offs the paper motivates (higher frame rate / color
// depth -> proportionally more CPU and bandwidth). Coef must not be
// mutated after the first Demand or CompileDemand call: the canonical
// key order is computed once and cached.
type LinearDemand struct {
	Base resource.Vector
	Coef map[qos.AttrKey]resource.Vector

	keysOnce sync.Once
	keys     []qos.AttrKey
}

// sortedKeys returns Coef's keys in canonical (dim, attr) order,
// computed once; safe for concurrent use (providers share demand
// models through the catalog).
func (d *LinearDemand) sortedKeys() []qos.AttrKey {
	d.keysOnce.Do(func() {
		d.keys = make([]qos.AttrKey, 0, len(d.Coef))
		for key := range d.Coef {
			d.keys = append(d.keys, key)
		}
		sortKeys(d.keys)
	})
	return d.keys
}

// Demand implements DemandModel. Contributions are summed in canonical
// (dim, attr) key order — not Go's randomized map order — so the result
// is bit-deterministic across runs and bit-identical to the compiled
// DemandTable, which sums in the same canonical order. Float addition
// is commutative but not associative; a fixed order is what makes the
// slot-indexed fast path equal to this one by construction instead of
// by luck with exactly-representable coefficients.
func (d *LinearDemand) Demand(spec *qos.Spec, level qos.Level) (resource.Vector, error) {
	out := d.Base
	for _, key := range d.sortedKeys() {
		v, ok := level[key]
		if !ok {
			continue
		}
		mag, err := magnitude(spec, key, v)
		if err != nil {
			return resource.Vector{}, err
		}
		out = out.Add(d.Coef[key].Scale(mag))
	}
	if !out.Nonnegative() {
		return resource.Vector{}, fmt.Errorf("task: linear demand produced negative vector %v", out)
	}
	return out, nil
}

// sortKeys orders attribute keys canonically by (dim, attr).
func sortKeys(keys []qos.AttrKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Dim != keys[j].Dim {
			return keys[i].Dim < keys[j].Dim
		}
		return keys[i].Attr < keys[j].Attr
	})
}

func magnitude(spec *qos.Spec, key qos.AttrKey, v qos.Value) (float64, error) {
	if v.IsNumeric() {
		return v.Num(), nil
	}
	attr := spec.Attr(key)
	if attr == nil {
		return 0, fmt.Errorf("task: demand refers to unknown attribute %v", key)
	}
	idx := attr.Domain.IndexOf(v)
	if idx < 0 {
		return 0, fmt.Errorf("task: value %v outside domain of %v", v, key)
	}
	return float64(idx), nil
}

// FuncDemand adapts a plain function to DemandModel, for tests and ad-hoc
// workloads.
type FuncDemand func(spec *qos.Spec, level qos.Level) (resource.Vector, error)

// Demand implements DemandModel.
func (f FuncDemand) Demand(spec *qos.Spec, level qos.Level) (resource.Vector, error) {
	return f(spec, level)
}
