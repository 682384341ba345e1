package resource

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestVectorArithmetic(t *testing.T) {
	a := V(KV{CPU, 100}, KV{Memory, 32})
	b := V(KV{CPU, 50}, KV{NetBW, 10})
	sum := a.Add(b)
	if sum[CPU] != 150 || sum[Memory] != 32 || sum[NetBW] != 10 {
		t.Errorf("Add = %v", sum)
	}
	diff := a.Sub(b)
	if diff[CPU] != 50 || diff[NetBW] != -10 {
		t.Errorf("Sub = %v", diff)
	}
	sc := a.Scale(2)
	if sc[CPU] != 200 || sc[Memory] != 64 {
		t.Errorf("Scale = %v", sc)
	}
	if !b.Fits(a.Add(b)) {
		t.Error("b must fit a+b")
	}
	if a.Add(b).Fits(a) {
		t.Error("a+b must not fit a")
	}
	if !(Vector{}).IsZero() || a.IsZero() {
		t.Error("IsZero broken")
	}
	if !a.Nonnegative() || diff.Nonnegative() {
		t.Error("Nonnegative broken")
	}
}

func TestVectorAlgebraProperties(t *testing.T) {
	mk := func(c, m, n float64) Vector { return V(KV{CPU, c}, KV{Memory, m}, KV{NetBW, n}) }
	clamp := func(x float64) float64 { return float64(int64(x) % 1_000_000) } // finite, exact in float64
	// Add commutes; Sub inverts Add; Scale distributes.
	f := func(a1, a2, b1, b2, c1, c2 int64) bool {
		a := mk(clamp(float64(a1)), clamp(float64(b1)), clamp(float64(c1)))
		b := mk(clamp(float64(a2)), clamp(float64(b2)), clamp(float64(c2)))
		if a.Add(b) != b.Add(a) {
			return false
		}
		if a.Add(b).Sub(b) != a {
			return false
		}
		return a.Add(a) == a.Scale(2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVectorString(t *testing.T) {
	v := V(KV{CPU, 120}, KV{Memory, 32})
	if got := v.String(); got != "{cpu:120 mem:32}" {
		t.Errorf("String = %q", got)
	}
	if got := (Vector{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestKindNames(t *testing.T) {
	want := map[Kind]string{CPU: "cpu", Memory: "mem", NetBW: "netbw", Energy: "energy", Storage: "storage"}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("Kind %d = %q, want %q", k, k.String(), name)
		}
	}
	if len(want) != NumKinds {
		t.Error("kind table incomplete")
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestBucketReserveRelease(t *testing.T) {
	eachBucket(t, CPU, 100, func(t *testing.T, b bucketLike) {
		if b.Capacity() != 100 || b.Available() != 100 {
			t.Fatal("fresh bucket")
		}
		if err := b.Reserve("a", 60); err != nil {
			t.Fatal(err)
		}
		if b.Available() != 40 {
			t.Errorf("available = %v", b.Available())
		}
		// Over-capacity rejected with a typed error.
		err := b.Reserve("b", 50)
		var ie *InsufficientError
		if !errors.As(err, &ie) {
			t.Fatalf("want *InsufficientError, got %v", err)
		}
		if ie.Kind != CPU || ie.Want != 50 || ie.Have != 40 {
			t.Errorf("error detail = %+v", ie)
		}
		if ie.Error() == "" {
			t.Error("error message empty")
		}
		// Duplicate id rejected (ids name one reservation).
		if err := b.Reserve("a", 1); err == nil {
			t.Error("duplicate reservation id accepted")
		}
		// Release returns the held amount; unknown ids release 0.
		if got := b.Release("a"); got != 60 {
			t.Errorf("released %v", got)
		}
		if got := b.Release("a"); got != 0 {
			t.Errorf("double release = %v", got)
		}
		if b.Available() != 100 {
			t.Error("release did not restore capacity")
		}
		// Zero reservations are free and need no ledger entry.
		if err := b.Reserve("z", 0); err != nil {
			t.Error(err)
		}
		if len(b.Holders()) != 0 {
			t.Error("zero reservation created a holder")
		}
		// Negative reservations are errors.
		if err := b.Reserve("n", -5); err == nil {
			t.Error("negative reservation accepted")
		}
	})
}

// TestBucketReleaseReplayIdempotent pins the ledger property the
// at-least-once protocol layer leans on (DESIGN.md §12): a duplicated
// TaskRelease replays Release(id) arbitrarily many times, and every
// replay after the first must be a no-op — reserved can never go
// negative and a drained kind returns to exactly its capacity.
func TestBucketReleaseReplayIdempotent(t *testing.T) {
	eachBucket(t, CPU, 100, func(t *testing.T, b bucketLike) {
		ids := []ReservationID{"t1", "t2", "t3"}
		for i, id := range ids {
			if err := b.Reserve(id, float64(10*(i+1))); err != nil {
				t.Fatal(err)
			}
		}
		// A replay storm: every release delivered three times, interleaved.
		for round := 0; round < 3; round++ {
			for _, id := range ids {
				b.Release(id)
				if avail := b.Available(); avail > b.Capacity() {
					t.Fatalf("replayed release drove reserved negative: available %v > capacity %v", avail, b.Capacity())
				}
			}
		}
		if b.Available() != 100 {
			t.Errorf("drained bucket available = %v, want exactly 100", b.Available())
		}
		if len(b.Holders()) != 0 {
			t.Errorf("holders after drain: %v", b.Holders())
		}
		// A release replayed across a re-reservation of the same id frees the
		// live reservation once, never twice.
		if err := b.Reserve("t1", 25); err != nil {
			t.Fatal(err)
		}
		if got := b.Release("t1"); got != 25 {
			t.Errorf("first release = %v", got)
		}
		if got := b.Release("t1"); got != 0 {
			t.Errorf("replayed release = %v, want 0", got)
		}
		if b.Available() != 100 {
			t.Errorf("available = %v after replay across re-reserve", b.Available())
		}
	})
}

// TestSetReleaseReplayIdempotent lifts the same pin to the whole vector:
// the second release of an id returns the zero vector and leaves every
// kind exactly full.
func TestSetReleaseReplayIdempotent(t *testing.T) {
	s := NewSet(V(KV{CPU, 100}, KV{Memory, 64}, KV{NetBW, 10}, KV{Energy, 50}))
	if err := s.Reserve("task", V(KV{CPU, 30}, KV{Memory, 16}, KV{NetBW, 2}, KV{Energy, 5})); err != nil {
		t.Fatal(err)
	}
	first := s.Release("task")
	if first[CPU] != 30 || first[Memory] != 16 {
		t.Errorf("first release = %v", first)
	}
	second := s.Release("task")
	if !second.IsZero() {
		t.Errorf("replayed release = %v, want zero vector", second)
	}
	if s.Available() != s.Capacity() {
		t.Errorf("available %v != capacity %v after replay", s.Available(), s.Capacity())
	}
}

func TestBucketSetCapacity(t *testing.T) {
	eachBucket(t, CPU, 100, func(t *testing.T, b bucketLike) {
		if err := b.Reserve("a", 80); err != nil {
			t.Fatal(err)
		}
		b.SetCapacity(50) // congestion: capacity drops below reserved
		if b.Available() >= 0 {
			t.Errorf("available = %v, want negative (over-committed)", b.Available())
		}
		if err := b.Reserve("b", 1); err == nil {
			t.Error("admission over shrunk capacity accepted")
		}
		if got := b.Release("a"); got != 80 {
			t.Error("existing reservation must survive capacity changes")
		}
	})
}

func TestBucketHolders(t *testing.T) {
	eachBucket(t, Memory, 10, func(t *testing.T, b bucketLike) {
		for _, id := range []ReservationID{"c", "a", "b"} {
			if err := b.Reserve(id, 1); err != nil {
				t.Fatal(err)
			}
		}
		h := b.Holders()
		if len(h) != 3 || h[0] != "a" || h[1] != "b" || h[2] != "c" {
			t.Errorf("Holders = %v, want sorted", h)
		}
	})
}

func TestBucketConcurrentReserve(t *testing.T) {
	b := kindOf{NewSet(V(KV{CPU, 1000})), CPU}
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			id := ReservationID(rune('a' + n%26))
			if err := b.Reserve(ReservationID(string(id)+string(rune('0'+n/26))), 10); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent reserve failed: %v", err)
	}
	if b.Available() != 0 {
		t.Errorf("available = %v, want 0 after 100x10 on 1000", b.Available())
	}
}

// TestBatteryDrain drains the Energy kind the way Cluster.runBattery does
// — capacity stepped down through SetCapacity, floored at zero — under a
// live reservation: the holder survives, admission closes.
func TestBatteryDrain(t *testing.T) {
	s := NewSet(V(KV{CPU, 10}, KV{Energy, 100}))
	if err := s.Reserve("task", V(KV{CPU, 1}, KV{Energy, 30})); err != nil {
		t.Fatal(err)
	}
	drain := func(units float64) {
		left := s.Capacity()[Energy] - units
		if left < 0 {
			left = 0
		}
		s.SetCapacity(Energy, left)
	}
	drain(2 * 10) // 2 units/s for 10 s
	if got := s.Capacity()[Energy]; got != 80 {
		t.Errorf("capacity after drain = %v, want 80", got)
	}
	if !s.CanReserve(V(KV{Energy, 50})) || s.CanReserve(V(KV{Energy, 51})) {
		t.Error("admission must follow the drained capacity")
	}
	drain(2 * 1000)
	capacity, available := s.Usage()
	if capacity[Energy] != 0 {
		t.Errorf("capacity floor = %v, want 0", capacity[Energy])
	}
	if available[Energy] != -30 || available[CPU] != 9 {
		t.Errorf("available = %v, want the holder kept over an empty battery", available)
	}
	if err := s.Reserve("late", V(KV{Energy, 1})); err == nil {
		t.Error("an empty battery granted a reservation")
	}
	if got := s.Release("task"); got[Energy] != 30 {
		t.Errorf("released %v, want the reservation intact", got)
	}
	if got := s.Available()[Energy]; got != 0 {
		t.Errorf("available after release = %v, want exactly 0", got)
	}
}

func TestSetReserveAllOrNothing(t *testing.T) {
	s := NewSet(V(KV{CPU, 100}, KV{Memory, 10}))
	// Demand exceeding memory must not leave a partial CPU reservation.
	demand := V(KV{CPU, 50}, KV{Memory, 20})
	if err := s.Reserve("x", demand); err == nil {
		t.Fatal("infeasible demand accepted")
	}
	if s.Available() != s.Capacity() {
		t.Fatalf("rollback failed: available %v, capacity %v", s.Available(), s.Capacity())
	}
	// Feasible demand reserves everything.
	ok := V(KV{CPU, 50}, KV{Memory, 5})
	if err := s.Reserve("x", ok); err != nil {
		t.Fatal(err)
	}
	avail := s.Available()
	if avail[CPU] != 50 || avail[Memory] != 5 {
		t.Errorf("available = %v", avail)
	}
	// Release returns the full vector.
	rel := s.Release("x")
	if rel[CPU] != 50 || rel[Memory] != 5 {
		t.Errorf("released = %v", rel)
	}
	if s.Available() != s.Capacity() {
		t.Error("release incomplete")
	}
}

func TestSetCanReserveMatchesReserve(t *testing.T) {
	s := NewSet(V(KV{CPU, 100}, KV{Memory, 10}, KV{NetBW, 5}))
	f := func(c, m, n uint8) bool {
		demand := V(KV{CPU, float64(c)}, KV{Memory, float64(m) / 10}, KV{NetBW, float64(n) / 50})
		can := s.CanReserve(demand)
		err := s.Reserve("probe", demand)
		if err == nil {
			s.Release("probe")
		}
		return can == (err == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSetRejectsNegativeDemand(t *testing.T) {
	s := NewSet(V(KV{CPU, 10}))
	var d Vector
	d[CPU] = -1
	if err := s.Reserve("x", d); err == nil {
		t.Error("negative demand accepted")
	}
}

// TestNewSetZeroCapacityKinds: kinds the capacity vector leaves out (or
// gives a negative amount) are managed at zero capacity and grant nothing.
func TestNewSetZeroCapacityKinds(t *testing.T) {
	s := NewSet(V(KV{CPU, 100}, KV{Energy, 200}, KV{NetBW, -5}))
	capacity := s.Capacity()
	if capacity[CPU] != 100 || capacity[Energy] != 200 {
		t.Error("explicit capacity lost")
	}
	if capacity[Storage] != 0 || capacity[NetBW] != 0 {
		t.Error("missing and negative kinds must default to zero capacity")
	}
	if err := s.Reserve("x", V(KV{Storage, 1})); err == nil {
		t.Error("zero-capacity kind granted a reservation")
	}
}

func TestSetConcurrentReserveRelease(t *testing.T) {
	s := NewSet(V(KV{CPU, 1000}, KV{Memory, 1000}))
	demand := V(KV{CPU, 10}, KV{Memory, 10})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			id := ReservationID(rune('A' + n))
			if err := s.Reserve(id, demand); err == nil {
				s.Release(id)
			}
		}(i)
	}
	wg.Wait()
	if s.Available() != s.Capacity() {
		t.Errorf("leaked reservations: %v vs %v", s.Available(), s.Capacity())
	}
}

// TestSetResize pins the swap: a fitting demand replaces the holding, a
// demand that does not fit leaves the old holding exactly as it was (the
// kinds granted before the failing one are given back), and an id the
// ledger does not know resizes from nothing.
func TestSetResize(t *testing.T) {
	s := NewSet(V(KV{CPU, 100}, KV{Memory, 10}))
	small, large := V(KV{CPU, 40}, KV{Memory, 4}), V(KV{CPU, 80}, KV{Memory, 8})
	if err := s.Reserve("task", small); err != nil {
		t.Fatal(err)
	}
	if err := s.Resize("task", large); err != nil {
		t.Fatal(err)
	}
	if got := s.Available(); got != s.Capacity().Sub(large) {
		t.Errorf("available after upgrade = %v", got)
	}
	// Memory is the failing kind; CPU was granted first and must come back.
	err := s.Resize("task", V(KV{CPU, 90}, KV{Memory, 11}))
	var ie *InsufficientError
	if !errors.As(err, &ie) || ie.Kind != Memory || ie.Want != 11 || ie.Have != 10 {
		t.Fatalf("oversize resize = %v, want insufficient mem", err)
	}
	if got := s.Available(); got != s.Capacity().Sub(large) {
		t.Errorf("failed resize moved the ledger: available %v", got)
	}
	if h := s.Holders(Memory); len(h) != 1 || h[0] != "task" {
		t.Errorf("failed resize lost the holder: %v", h)
	}
	if err := s.Resize("task", V(KV{CPU, -1})); err == nil {
		t.Error("negative resize accepted")
	}
	// A holding the shrunk capacity no longer covers is still put back.
	s.SetCapacity(CPU, 50)
	if err := s.Resize("task", V(KV{CPU, 90})); err == nil {
		t.Error("resize over shrunk capacity accepted")
	}
	if got := s.Release("task"); got != large {
		t.Errorf("released %v, want the holding kept through failed resizes", got)
	}
	if err := s.Resize("fresh", small); err != nil {
		t.Fatal(err)
	}
	if got := s.Release("fresh"); got != small {
		t.Errorf("resize of an unknown id held %v", got)
	}
	if s.Available() != s.Capacity() {
		t.Errorf("available %v != capacity %v after drain", s.Available(), s.Capacity())
	}
}

// TestSetResizeNeverLosesID races Reserve/Release on other ids against
// Resize flipping one holding between two sizes. A failed upgrade must
// find its old holding intact: released, re-reserved and put back in one
// critical section, the freed amount is never there for a racer to take.
func TestSetResizeNeverLosesID(t *testing.T) {
	s := NewSet(V(KV{CPU, 100}, KV{Memory, 100}))
	sizes := [2]Vector{V(KV{CPU, 40}, KV{Memory, 10}), V(KV{CPU, 80}, KV{Memory, 20})}
	if err := s.Reserve("held", sizes[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := ReservationID(rune('A' + g))
			for i := 0; i < 500; i++ {
				if s.Reserve(id, V(KV{CPU, 30})) == nil {
					s.Release(id)
				}
			}
		}(g)
	}
	for i := 1; i <= 2000; i++ {
		_ = s.Resize("held", sizes[i%2]) // an upgrade may lose to the racers; the holding may not
		if h := s.Holders(Memory); len(h) != 1 || h[0] != "held" {
			t.Fatalf("resize %d lost the reservation: holders %v", i, h)
		}
	}
	wg.Wait()
	held := s.Release("held")
	if held != sizes[0] && held != sizes[1] {
		t.Errorf("held = %v, want one of the two sizes", held)
	}
	if s.Available() != s.Capacity() {
		t.Errorf("available %v != capacity %v after drain", s.Available(), s.Capacity())
	}
}
