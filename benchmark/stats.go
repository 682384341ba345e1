package main

import "repro/internal/metrics"

// sampleOf collects xs into the repository's own quantile toolkit
// (metrics.Sample interpolates linearly between closest ranks).
func sampleOf(xs []float64) *metrics.Sample {
	var s metrics.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return &s
}

func median(xs []float64) float64 { return sampleOf(xs).Quantile(0.5) }

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything (choosing-metrics guide, section 1).
const tailMinBeyond = 10

// p99 returns the 99th percentile and true, or false when fewer than
// tailMinBeyond samples lie beyond it: a tail read off a handful of
// samples is an anecdote, so it is omitted, not estimated.
func p99(s *metrics.Sample) (float64, bool) {
	if float64(s.N())*0.01 < tailMinBeyond {
		return 0, false
	}
	return s.Quantile(0.99), true
}

// p99OrMax is p99 where a number must be printed regardless: a sample
// too small for a 99th percentile yields its maximum, a conservative
// stand-in the report flags.
func p99OrMax(s *metrics.Sample) float64 {
	if v, ok := p99(s); ok {
		return v
	}
	return s.Max()
}

// spread summarizes a sample the way every timing in the report is
// printed: median, quartiles and the sample count.
type spread struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func spreadOf(xs []float64) spread {
	s := sampleOf(xs)
	return spread{N: s.N(), Median: s.Quantile(0.5), Q1: s.Quantile(0.25), Q3: s.Quantile(0.75)}
}

// splitmix64 is the finalizer every seed derivation in the repository
// uses (fabric shard seeds, fault plans, retry jitter).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// repSeed derives replication r's private seed from the run seed and
// the workload name, so workloads never share a random stream and
// replication r draws the same inputs whatever ran before it.
func repSeed(seed int64, workload string, r int) int64 {
	h := splitmix64(uint64(seed))
	for i := 0; i < len(workload); i++ {
		h = splitmix64(h ^ uint64(workload[i]))
	}
	return int64(splitmix64(h ^ uint64(r)))
}
