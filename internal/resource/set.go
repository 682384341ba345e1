package resource

import (
	"fmt"
	"slices"
	"sync"
)

// ReservationID identifies a reservation within one node; the convention
// throughout the repo is "service/task" or "service/task#attempt".
type ReservationID string

// Set is a node's Resource Managers — the paper's objects that each
// manage one resource and grant specific amounts to requesting tasks —
// kept as one flat ledger: a capacity and a reserved vector with one
// component per managed kind, and the amounts every live reservation
// holds. The QoS Provider "rather than reserving resources directly ...
// will contact the Resource Managers to grant specific resource amounts"
// (Section 4.1); Set is that contact surface, with an all-or-nothing
// vector reservation primitive.
//
// Each kind keeps the utilization-style admission test on its own running
// sum: the CPU test "task set is schedulable" (Section 5) reduces to total
// reserved utilization <= capacity, the classic EDF bound with capacity
// scaled to the node's speed. A Set is safe for concurrent use: the live
// and TCP runtimes call it from per-node goroutines and from timer
// goroutines, and every operation is one critical section.
type Set struct {
	mu       sync.Mutex
	capacity Vector
	reserved Vector
	live     [NumKinds]int // reservations holding a nonzero amount, per kind
	ledger   map[ReservationID]Vector
}

// NewSet builds a Set sized by the capacity vector; negative components
// are taken as zero.
func NewSet(capacity Vector) *Set {
	for k := range capacity {
		if capacity[k] < 0 {
			capacity[k] = 0
		}
	}
	return &Set{capacity: capacity, ledger: make(map[ReservationID]Vector)}
}

// Capacity returns the capacity vector.
func (s *Set) Capacity() Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity
}

// Available returns the currently unreserved amounts.
func (s *Set) Available() Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity.Sub(s.reserved)
}

// Usage returns the capacity and available vectors of one instant, for
// the utilization readers that want both.
func (s *Set) Usage() (capacity, available Vector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity, s.capacity.Sub(s.reserved)
}

// SetCapacity adjusts one kind's capacity at run time (battery decay,
// congestion changes). Existing reservations are never revoked; the
// available amount may temporarily become negative, which only blocks new
// admissions.
func (s *Set) SetCapacity(k Kind, c float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.capacity[k] = c
}

// CanReserve reports whether demand would be granted right now, without
// reserving. Callers racing each other must still handle Reserve errors.
func (s *Set) CanReserve(demand Vector) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity.Sub(s.reserved).Grants(demand)
}

// Grants is CanReserve's test on an availability vector: whether every
// kind demand asks for is covered. Kinds it does not ask for are not
// looked at, so an overcommitted kind (capacity lowered under its
// reservations) refuses only demand for that kind.
func (v Vector) Grants(demand Vector) bool {
	for k, amt := range demand {
		if amt > 0 && v[k] < amt {
			return false
		}
	}
	return true
}

// Reserve grants the whole demand vector under id, or grants nothing and
// returns the first failing kind's error: *InsufficientError when that
// kind's capacity does not cover its amount. Zero components hold nothing
// and need no ledger entry. Reserving a kind id already holds is an error:
// ids name one reservation, so that rollback and release are exact.
func (s *Set) Reserve(id ReservationID, demand Vector) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reserveLocked(id, demand)
}

// Release frees everything held under id and returns the released vector
// (zero when the id is unknown, so a replayed release is a no-op).
func (s *Set) Release(id ReservationID) Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.releaseLocked(id)
}

// Resize swaps id's reservation for one at the new demand: the holding is
// released, the new demand reserved, and when that fails the old holding
// is put back as it was — all in one critical section, so no concurrent
// Reserve can take the freed amount and the id is never lost. Putting back
// skips the admission test: it only returns the ledger to the state it
// just left. An unknown id resizes from nothing.
func (s *Set) Resize(id ReservationID, demand Vector) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.releaseLocked(id)
	err := s.reserveLocked(id, demand)
	if err != nil && !old.IsZero() {
		for k, amt := range old {
			if amt != 0 {
				s.reserved[k] += amt
				s.live[k]++
			}
		}
		s.ledger[id] = old
	}
	return err
}

// Holders returns the IDs of the reservations holding kind k, sorted, for
// diagnostics.
func (s *Set) Holders(k Kind) []ReservationID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []ReservationID
	for id, held := range s.ledger {
		if held[k] != 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// reserveLocked admits demand kind by kind, in kind order, each against
// its own running sum, and takes back the kinds already granted when a
// later one fails.
func (s *Set) reserveLocked(id ReservationID, demand Vector) error {
	if !demand.Nonnegative() {
		return fmt.Errorf("resource: demand %v has negative component", demand)
	}
	held := s.ledger[id]
	for k, amt := range demand {
		if amt == 0 {
			continue
		}
		var err error
		if held[k] != 0 {
			err = fmt.Errorf("resource: reservation %q already live on %s", id, Kind(k))
		} else if s.reserved[k]+amt > s.capacity[k] {
			err = &InsufficientError{Kind: Kind(k), Want: amt, Have: s.capacity[k] - s.reserved[k]}
		}
		if err != nil {
			s.freeLocked(demand, k)
			return err
		}
		s.reserved[k] += amt
		s.live[k]++
		held[k] = amt
	}
	if !held.IsZero() {
		s.ledger[id] = held
	}
	return nil
}

func (s *Set) releaseLocked(id ReservationID) Vector {
	held, ok := s.ledger[id]
	if ok {
		delete(s.ledger, id)
		s.freeLocked(held, NumKinds)
	}
	return held
}

// freeLocked returns held's amounts of the kinds below upTo to the pool.
// A kind nobody holds has zero usage by definition; snapping it to 0
// discards the float residue a running sum accumulates across interleaved
// reserve/release pairs, so a drained kind's available amount returns
// exactly to its capacity.
func (s *Set) freeLocked(held Vector, upTo int) {
	for k := 0; k < upTo; k++ {
		if held[k] == 0 {
			continue
		}
		s.reserved[k] -= held[k]
		s.live[k]--
		if s.reserved[k] < 0 || s.live[k] == 0 {
			s.reserved[k] = 0
		}
	}
}
