package sim

import "testing"

// BenchmarkEventThroughput measures raw scheduler throughput: schedule
// and drain batches of randomly timed events.
func BenchmarkEventThroughput(b *testing.B) {
	const batch = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(int64(i))
		for j := 0; j < batch; j++ {
			e.At(e.Rand().Float64()*100, func() {})
		}
		e.Run(0)
		if e.Processed != batch {
			b.Fatal("lost events")
		}
	}
}

// BenchmarkCascade measures self-rescheduling chains (the heartbeat and
// battery-drain pattern).
func BenchmarkCascade(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(1)
		n := 0
		var loop func()
		loop = func() {
			n++
			if n < 1000 {
				e.After(0.5, loop)
			}
		}
		e.After(0.5, loop)
		e.Run(0)
		if n != 1000 {
			b.Fatal("chain broke")
		}
	}
}

// BenchmarkIdleUpkeep runs the event mix of a coalition at rest (the
// sim-hold workload): 24 heartbeat timers re-armed with After(0.5), 12
// monitor timers re-armed with After(1), one sub-millisecond radio
// delivery (AfterArg) per timer fire, and 12 events far in the future.
// One op is one simulated second; ns/event is the figure to compare.
func BenchmarkIdleUpkeep(b *testing.B) {
	e := New(1)
	deliver := func(any) {}
	var heartbeat, monitor func()
	heartbeat = func() {
		e.AfterArg(1.6e-4, deliver, nil)
		e.After(0.5, heartbeat)
	}
	monitor = func() {
		e.AfterArg(1.6e-4, deliver, nil)
		e.After(1, monitor)
	}
	for i := 0; i < 24; i++ {
		e.At(e.Rand().Float64()*0.5, heartbeat)
	}
	for i := 0; i < 12; i++ {
		e.At(e.Rand().Float64(), monitor)
		e.At(1e9+float64(i), func() {})
	}
	e.Run(10) // fill the lanes, the heap and the slab
	b.ReportAllocs()
	b.ResetTimer()
	start := e.Processed
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Processed-start), "ns/event")
}
