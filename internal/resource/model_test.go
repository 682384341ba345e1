package resource

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// bucket is the reference model of one managed kind: the mutex-free core
// of the per-kind Resource Manager the flat Set replaced — a capacity, a
// running reserved sum and a ledger of amounts. The Bucket tests below run
// on it and on one kind of a Set alike; TestSetMatchesBucketModel drives
// five of them against a Set with random operations.
type bucket struct {
	kind               Kind
	capacity, reserved float64
	ledger             map[ReservationID]float64
}

func newBucket(kind Kind, capacity float64) *bucket {
	if capacity < 0 {
		capacity = 0
	}
	return &bucket{kind: kind, capacity: capacity, ledger: make(map[ReservationID]float64)}
}

func (b *bucket) Capacity() float64     { return b.capacity }
func (b *bucket) Available() float64    { return b.capacity - b.reserved }
func (b *bucket) SetCapacity(c float64) { b.capacity = c }

func (b *bucket) Reserve(id ReservationID, amount float64) error {
	if amount < 0 {
		return fmt.Errorf("resource: negative reservation %g for %s", amount, b.kind)
	}
	if amount == 0 {
		return nil
	}
	if _, live := b.ledger[id]; live {
		return fmt.Errorf("resource: reservation %q already live on %s", id, b.kind)
	}
	if b.reserved+amount > b.capacity {
		return &InsufficientError{Kind: b.kind, Want: amount, Have: b.capacity - b.reserved}
	}
	b.reserved += amount
	b.ledger[id] = amount
	return nil
}

func (b *bucket) Release(id ReservationID) float64 {
	amt, ok := b.ledger[id]
	if !ok {
		return 0
	}
	delete(b.ledger, id)
	b.reserved -= amt
	if b.reserved < 0 || len(b.ledger) == 0 {
		b.reserved = 0
	}
	return amt
}

func (b *bucket) Holders() []ReservationID {
	var ids []ReservationID
	for id := range b.ledger {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// kindOf is one kind of a Set seen as the bucket it replaced.
type kindOf struct {
	s *Set
	k Kind
}

func (v kindOf) Capacity() float64        { return v.s.Capacity()[v.k] }
func (v kindOf) Available() float64       { return v.s.Available()[v.k] }
func (v kindOf) SetCapacity(c float64)    { v.s.SetCapacity(v.k, c) }
func (v kindOf) Holders() []ReservationID { return v.s.Holders(v.k) }
func (v kindOf) Release(id ReservationID) float64 {
	return v.s.Release(id)[v.k]
}
func (v kindOf) Reserve(id ReservationID, amount float64) error {
	var d Vector
	d[v.k] = amount
	return v.s.Reserve(id, d)
}

type bucketLike interface {
	Capacity() float64
	Available() float64
	SetCapacity(float64)
	Reserve(ReservationID, float64) error
	Release(ReservationID) float64
	Holders() []ReservationID
}

// eachBucket runs f on the reference bucket and on the same kind of a
// fresh Set, so the model and the ledger answer to the same assertions.
func eachBucket(t *testing.T, kind Kind, capacity float64, f func(t *testing.T, b bucketLike)) {
	t.Run("model", func(t *testing.T) { f(t, newBucket(kind, capacity)) })
	t.Run("set", func(t *testing.T) {
		var c Vector
		c[kind] = capacity
		f(t, kindOf{NewSet(c), kind})
	})
}

// modelSet is five buckets composed the way the Set used to compose its
// managers: all-or-nothing Reserve with rollback of the kinds already
// granted, Release across all kinds, Resize as release-reserve-put-back.
type modelSet [NumKinds]*bucket

func newModelSet(capacity Vector) *modelSet {
	var m modelSet
	for k := range m {
		m[k] = newBucket(Kind(k), capacity[k])
	}
	return &m
}

func (m *modelSet) Available() (v Vector) {
	for k, b := range m {
		v[k] = b.Available()
	}
	return v
}

func (m *modelSet) CanReserve(demand Vector) bool {
	for k, b := range m {
		if demand[k] > 0 && b.Available() < demand[k] {
			return false
		}
	}
	return true
}

func (m *modelSet) Reserve(id ReservationID, demand Vector) error {
	if !demand.Nonnegative() {
		return fmt.Errorf("resource: demand %v has negative component", demand)
	}
	for k, b := range m {
		if demand[k] == 0 {
			continue
		}
		if err := b.Reserve(id, demand[k]); err != nil {
			for j := 0; j < k; j++ {
				if demand[j] != 0 {
					m[j].Release(id)
				}
			}
			return err
		}
	}
	return nil
}

func (m *modelSet) Release(id ReservationID) (v Vector) {
	for k, b := range m {
		v[k] = b.Release(id)
	}
	return v
}

func (m *modelSet) Resize(id ReservationID, demand Vector) error {
	old := m.Release(id)
	err := m.Reserve(id, demand)
	if err != nil {
		for k, b := range m {
			if old[k] != 0 {
				b.reserved += old[k]
				b.ledger[id] = old[k]
			}
		}
	}
	return err
}

// TestSetMatchesBucketModel drives the flat Set and the bucket model with
// the same random operations — duplicate ids, zero and negative
// components, over-capacity demands, releases of unknown ids, capacities
// moved under live reservations, amounts that leave float residue — and
// requires after every step the same result, the same error in type and
// text, bit-equal availability and the same holders per kind.
func TestSetMatchesBucketModel(t *testing.T) {
	amounts := []float64{0, 0, 0.1, 0.2, 0.3, 0.7, 1, 2.5, 4, -1}
	ids := []ReservationID{"a", "b", "c", "d", "e", "f"}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vec := func() (v Vector) {
			for k := range v {
				if a := amounts[rng.Intn(len(amounts))]; a >= 0 || rng.Intn(20) == 0 {
					v[k] = a
				}
			}
			return v
		}
		capacity := V(KV{CPU, 5}, KV{Memory, 3}, KV{NetBW, 1}, KV{Energy, 8})
		set, model := NewSet(capacity), newModelSet(capacity)
		for step := 0; step < 600; step++ {
			id := ids[rng.Intn(len(ids))]
			var op string
			var got, want any
			switch rng.Intn(10) {
			case 0, 1, 2:
				d := vec()
				op, got, want = fmt.Sprintf("Reserve(%s, %v)", id, d), set.Reserve(id, d), model.Reserve(id, d)
			case 3, 4:
				op, got, want = fmt.Sprintf("Release(%s)", id), set.Release(id), model.Release(id)
			case 5, 6:
				d := vec()
				op, got, want = fmt.Sprintf("Resize(%s, %v)", id, d), set.Resize(id, d), model.Resize(id, d)
			case 7:
				k, c := Kind(rng.Intn(NumKinds)), float64(rng.Intn(12))/2
				op = fmt.Sprintf("SetCapacity(%s, %g)", k, c)
				set.SetCapacity(k, c)
				model[k].SetCapacity(c)
			default:
				d := vec()
				op, got, want = fmt.Sprintf("CanReserve(%v)", d), set.CanReserve(d), model.CanReserve(d)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d %s = %v, model %v", seed, step, op, got, want)
			}
			if got, want := set.Available(), model.Available(); got != want {
				t.Fatalf("seed %d step %d after %s: available %v, model %v", seed, step, op, got, want)
			}
			for k, b := range model {
				if got, want := set.Holders(Kind(k)), b.Holders(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d after %s: %s holders %v, model %v", seed, step, op, Kind(k), got, want)
				}
			}
		}
	}
}
