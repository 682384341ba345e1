package xp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunnerDoRunsEveryJob(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		var ran [57]int32
		err := Runner{Workers: workers}.Do(len(ran), func(i int) error {
			atomic.AddInt32(&ran[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestRunnerDoReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		err := Runner{Workers: workers}.Do(20, func(i int) error {
			switch i {
			case 7:
				return errA
			case 15:
				return errB
			}
			return nil
		})
		if err != errA {
			t.Errorf("workers=%d: got %v, want error from job 7", workers, err)
		}
	}
}

func TestSweepSeedsAndRngPerReplication(t *testing.T) {
	cfg := Config{Seed: 42, Parallel: 4}
	const reps = 6
	acc, err := sweep(cfg, reps, []string{"p0", "p1"}, func(p string, rep Rep) ([]float64, error) {
		if rep.Seed != cfg.Seed+int64(rep.Index) {
			return nil, fmt.Errorf("rep %d got seed %d", rep.Index, rep.Seed)
		}
		// The rng must be private and freshly seeded: its first draw is
		// a pure function of the seed.
		return []float64{rep.Rng.Float64()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < reps; r++ {
		a, b := acc.Get(0, r), acc.Get(1, r)
		if a[0] != b[0] {
			t.Errorf("rep %d: points drew different firsts (%v vs %v) from the same seed", r, a[0], b[0])
		}
	}
}

// TestSweepDeterminismAcrossParallelism is the tentpole's contract: every
// experiment table is byte-identical whether its replications run
// sequentially or across 4 or 8 workers. E10 and E28 are excluded
// because they schedule real goroutines and sockets against wall-clock
// timers and are not guaranteed reproducible even run-to-run at a fixed
// parallelism.
func TestSweepDeterminismAcrossParallelism(t *testing.T) {
	for _, e := range All() {
		if e.ID == "E10" || e.ID == "E28" {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var want string
			for _, par := range []int{1, 4, 8} {
				tbl, err := e.Run(Config{Seed: 1, Repeats: 2, Quick: true, Parallel: par})
				if err != nil {
					t.Fatalf("parallel=%d: %v", par, err)
				}
				got := tbl.String()
				if par == 1 {
					want = got
					continue
				}
				if got != want {
					t.Errorf("parallel=%d diverged from sequential:\n--- sequential ---\n%s--- parallel=%d ---\n%s",
						par, want, par, got)
				}
			}
		})
	}
}
