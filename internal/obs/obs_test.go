package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestCounterZeroValueAndNil(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("zero counter loads %d", c.Load())
	}
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("got %d want 42", c.Load())
	}
	var nilc *Counter
	if nilc.Load() != 0 {
		t.Fatalf("nil counter loads %d", nilc.Load())
	}
}

func TestRegistrySumsInstancesPerName(t *testing.T) {
	r := NewRegistry()
	// Per-node instances registered under one name are summed.
	a, b := &Counter{}, &Counter{}
	r.Register("proto.retransmissions", a)
	r.Register("proto.retransmissions", b)
	a.Add(3)
	b.Add(4)
	// Registry-owned counter: repeated lookups share the instance.
	if r.Counter("session.freezes") != r.Counter("session.freezes") {
		t.Fatal("Counter did not return the shared instance")
	}
	r.Counter("session.freezes").Inc()
	got := r.Snapshot()
	want := Snapshot{"proto.retransmissions": 7, "session.freezes": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot %v want %v", got, want)
	}
	if names := r.names; !reflect.DeepEqual(names, []string{"proto.retransmissions", "session.freezes"}) {
		t.Fatalf("names %v", names)
	}
}

func TestRegistryRejectsDoubleRegistration(t *testing.T) {
	r := NewRegistry()
	c := &Counter{}
	r.Register("x", c)
	defer func() {
		if recover() == nil {
			t.Fatal("second Register of the same instance did not panic")
		}
	}()
	r.Register("x", c)
}

func TestSnapshotRegisteredButIdleIsZero(t *testing.T) {
	r := NewRegistry()
	r.Register("pkg.idle", &Counter{})
	got := r.Snapshot()
	if v, ok := got["pkg.idle"]; !ok || v != 0 {
		t.Fatalf("idle counter missing or nonzero: %v", got)
	}
}

// randomSnapshot draws a snapshot over a small shared key space so
// merges exercise both overlapping and disjoint keys.
func randomSnapshot(rng *rand.Rand) Snapshot {
	s := Snapshot{}
	for k := 0; k < 6; k++ {
		if rng.Intn(2) == 0 {
			s[fmt.Sprintf("k%d", k)] = uint64(rng.Intn(100))
		}
	}
	return s
}

func TestMergePropertyCommutativeAssociativeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		a, b, c := randomSnapshot(rng), randomSnapshot(rng), randomSnapshot(rng)
		if got, want := a.Merge(b), b.Merge(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("merge not commutative: %v vs %v", got, want)
		}
		if got, want := a.Merge(b).Merge(c), a.Merge(b.Merge(c)); !reflect.DeepEqual(got, want) {
			t.Fatalf("merge not associative: %v vs %v", got, want)
		}
		id := a.Merge(Snapshot{})
		// Merge with identity preserves values for every key of a.
		for k, v := range a {
			if id[k] != v {
				t.Fatalf("identity merge changed %s: %d != %d", k, id[k], v)
			}
		}
	}
}

func TestMergeDoesNotMutateOperands(t *testing.T) {
	a := Snapshot{"x": 1}
	b := Snapshot{"x": 2, "y": 3}
	_ = a.Merge(b)
	if a["x"] != 1 || b["x"] != 2 || b["y"] != 3 {
		t.Fatalf("merge mutated operands: a=%v b=%v", a, b)
	}
}

func TestDiffOfMergeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		base, delta := randomSnapshot(rng), randomSnapshot(rng)
		got := base.Merge(delta).Diff(base)
		// got must equal delta on the union of keys (absent = 0).
		for _, k := range got.Merge(delta).Names() {
			if got.Get(k) != delta.Get(k) {
				t.Fatalf("diff(merge) != delta at %s: %d != %d (base=%v delta=%v)",
					k, got.Get(k), delta.Get(k), base, delta)
			}
		}
	}
}

func TestDiffClampsAtZero(t *testing.T) {
	got := Snapshot{"x": 1}.Diff(Snapshot{"x": 5, "y": 2})
	if got["x"] != 0 || got["y"] != 0 {
		t.Fatalf("diff did not clamp: %v", got)
	}
}

func TestSnapshotStringSorted(t *testing.T) {
	s := Snapshot{"b": 2, "a": 1}
	if got := s.String(); got != "a=1 b=2" {
		t.Fatalf("String() = %q", got)
	}
}

func TestConcurrentAddAndSnapshot(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := r.Register("hot", &Counter{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot()["hot"]; got != workers*each {
		t.Fatalf("lost updates: %d != %d", got, workers*each)
	}
}
