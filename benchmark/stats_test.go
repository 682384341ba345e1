package main

import (
	"math"
	"testing"

	"repro/internal/metrics"
)

func TestSpreadOfMatchesStatisticsQuartiles(t *testing.T) {
	sp := spreadOf([]float64{4, 1, 3, 2, 5})
	if sp.N != 5 || sp.Median != 3 || sp.Q1 != 2 || sp.Q3 != 4 {
		t.Errorf("spreadOf = %+v", sp)
	}
}

// A p99 is reported only with at least ten samples beyond it.
func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) *metrics.Sample {
		var s metrics.Sample
		for i := 0; i < n; i++ {
			s.Add(float64(i))
		}
		return &s
	}
	if _, ok := p99(mk(999)); ok {
		t.Error("999 samples leave fewer than ten beyond the 99th percentile")
	}
	v, ok := p99(mk(1000))
	if !ok || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v, %v", v, ok)
	}
	if got := p99OrMax(mk(50)); got != 49 {
		t.Errorf("p99OrMax of 0..49 = %v, want the maximum", got)
	}
}

func TestRepSeedSeparatesSeedWorkloadAndReplication(t *testing.T) {
	base := repSeed(1, "sim-hold", 0)
	if base != repSeed(1, "sim-hold", 0) {
		t.Fatal("repSeed is not a pure function")
	}
	for name, other := range map[string]int64{
		"seed":        repSeed(2, "sim-hold", 0),
		"workload":    repSeed(1, "sim-chaos", 0),
		"replication": repSeed(1, "sim-hold", 1),
	} {
		if other == base {
			t.Errorf("changing the %s left the derived seed unchanged", name)
		}
	}
}
