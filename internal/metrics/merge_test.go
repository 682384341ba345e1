package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// TestSampleMergeEqualsConcatenation: merging shard samples is exactly
// accumulating the concatenated observation stream.
func TestSampleMergeEqualsConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nShards := 1 + rng.Intn(6)
		shards := make([]*Sample, nShards)
		var concat Sample
		for i := range shards {
			shards[i] = &Sample{}
			for k := 0; k < rng.Intn(40); k++ {
				x := rng.NormFloat64() * 10
				shards[i].Add(x)
				concat.Add(x)
			}
		}
		var merged Sample
		for _, sh := range shards {
			merged.Merge(sh)
		}
		if merged.N() != concat.N() {
			t.Fatalf("trial %d: merged N %d != concat N %d", trial, merged.N(), concat.N())
		}
		// Merge in shard order is literal concatenation, so every query
		// matches bit for bit — including order-sensitive float sums.
		if merged.Sum() != concat.Sum() || merged.Mean() != concat.Mean() {
			t.Fatalf("trial %d: merged moments diverge from concatenated stream", trial)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
			if merged.Quantile(q) != concat.Quantile(q) {
				t.Fatalf("trial %d: quantile %g diverges", trial, q)
			}
		}
	}
}

// TestSampleMergeOrderInvariance: queries that canonicalize by sorting
// (min, max, quantiles) are bit-identical whatever order shards merge
// in; the moment queries agree to float tolerance.
func TestSampleMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shards := make([]*Sample, 5)
	for i := range shards {
		shards[i] = &Sample{}
		for k := 0; k < 20+rng.Intn(20); k++ {
			shards[i].Add(rng.ExpFloat64())
		}
	}
	merge := func(order []int) *Sample {
		var m Sample
		for _, i := range order {
			m.Merge(shards[i])
		}
		return &m
	}
	fwd := merge([]int{0, 1, 2, 3, 4})
	rev := merge([]int{4, 3, 2, 1, 0})
	shuf := merge([]int{2, 0, 4, 1, 3})
	for _, other := range []*Sample{rev, shuf} {
		for _, q := range []float64{0, 0.1, 0.5, 0.95, 1} {
			if fwd.Quantile(q) != other.Quantile(q) {
				t.Fatalf("quantile %g depends on merge order", q)
			}
		}
		if math.Abs(fwd.Mean()-other.Mean()) > 1e-12*math.Abs(fwd.Mean()) {
			t.Fatalf("mean depends on merge order beyond rounding: %g vs %g", fwd.Mean(), other.Mean())
		}
	}
}

// piecewise is a random step signal: value steps[i] from t[i] until
// t[i+1], generated over [0, span].
type piecewise struct {
	ts, vs []float64
}

func randPiecewise(rng *rand.Rand, span float64) piecewise {
	n := 2 + rng.Intn(10)
	p := piecewise{ts: make([]float64, n), vs: make([]float64, n)}
	p.ts[0] = 0
	for i := 1; i < n; i++ {
		p.ts[i] = p.ts[i-1] + rng.Float64()*span/float64(n)
	}
	for i := range p.vs {
		p.vs[i] = rng.NormFloat64() * 5
	}
	return p
}

// at returns the signal value at time t (0 before the first step,
// hold-last after the final one — TimeAvg's extension rule).
func (p piecewise) at(t float64) float64 {
	if t < p.ts[0] {
		return 0
	}
	v := p.vs[0]
	for i, ti := range p.ts {
		if ti <= t {
			v = p.vs[i]
		}
	}
	return v
}

// TestTimeAvgMergeEqualsCombinedStream: merging per-shard TimeAvgs
// equals accumulating the summed signal as one stream over the union of
// the shards' breakpoints — the city fabric's aligned-window case.
func TestTimeAvgMergeEqualsCombinedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		const span = 100.0
		nShards := 2 + rng.Intn(4)
		sigs := make([]piecewise, nShards)
		avgs := make([]*TimeAvg, nShards)
		union := map[float64]bool{}
		for i := range sigs {
			sigs[i] = randPiecewise(rng, span)
			avgs[i] = &TimeAvg{}
			for k, tk := range sigs[i].ts {
				avgs[i].Observe(tk, sigs[i].vs[k])
				union[tk] = true
			}
		}
		// All shards observe from t=0 (aligned windows, like the
		// fabric's shared warmup tick), so the sum signal is exact.
		var points []float64
		for tk := range union {
			points = append(points, tk)
		}
		sortFloats(points)
		var combined TimeAvg
		for _, tk := range points {
			var sum float64
			for _, sg := range sigs {
				sum += sg.at(tk)
			}
			combined.Observe(tk, sum)
		}
		var merged TimeAvg
		for _, a := range avgs {
			merged.Merge(a)
		}
		until := span + rng.Float64()*20
		got, want := merged.Mean(until), combined.Mean(until)
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("trial %d: merged mean %g != combined-stream mean %g", trial, got, want)
		}
	}
}

// TestTimeAvgMergeOrderInvariance: the merged mean does not depend on
// the order shards fold in (beyond float rounding).
func TestTimeAvgMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sigs := make([]piecewise, 4)
	for i := range sigs {
		sigs[i] = randPiecewise(rng, 50)
	}
	build := func(order []int) float64 {
		var m TimeAvg
		for _, i := range order {
			var a TimeAvg
			for k, tk := range sigs[i].ts {
				a.Observe(tk, sigs[i].vs[k])
			}
			m.Merge(&a)
		}
		return m.Mean(60)
	}
	fwd := build([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		if got := build(order); math.Abs(got-fwd) > 1e-9*math.Max(1, math.Abs(fwd)) {
			t.Fatalf("order %v: mean %g != %g", order, got, fwd)
		}
	}
}

// TestTimeAvgMergeEdgeCases: merging with empty accumulators is the
// identity, and a pairwise merge is commutative.
func TestTimeAvgMergeEdgeCases(t *testing.T) {
	var a TimeAvg
	a.Observe(0, 2)
	a.Observe(5, 4)
	var empty TimeAvg
	before := a.Mean(10)
	a.Merge(&empty)
	a.Merge(nil)
	if a.Mean(10) != before {
		t.Fatal("merging an empty TimeAvg changed the mean")
	}
	var b TimeAvg
	b.Observe(2, 1)
	b.Observe(6, 3)
	ab, ba := a, b
	ab.Merge(&b)
	ba.Merge(&a)
	if ab.Mean(12) != ba.Mean(12) {
		t.Fatalf("pairwise merge not commutative: %g vs %g", ab.Mean(12), ba.Mean(12))
	}
	var onto TimeAvg
	onto.Merge(&b)
	if onto.Mean(8) != b.Mean(8) {
		t.Fatal("merging into an empty TimeAvg is not the identity")
	}
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
