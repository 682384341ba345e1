package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// sizes are the run lengths a mode fixes: the driver's timed runs, or
// the fixed small work of -smoke that the tests use.
type sizes struct {
	seconds float64 // timed-region length; 0 means fixed work below
	setups  int     // set-up repetitions whose median is setup_s
	// smoke shrinks every sim horizon 20x and fixes the work to one
	// replication or fleetOps formations.
	smoke       bool
	fleetOps    int
	fleetWarmup int
}

func timedSizes(seconds float64) sizes {
	return sizes{seconds: seconds, setups: 5, fleetWarmup: fleetWarmup}
}

func smokeSizes() sizes {
	return sizes{setups: 1, smoke: true, fleetOps: 50, fleetWarmup: 10}
}

// usage is a reading of the process's cumulative cost counters.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{at: time.Now(), cpu: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs}
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// segment accumulates one side of a measured region: what the workload
// did, what it cost the host, and the public counters of the layers
// under it. An untraced run has one segment; a traced run has two, the
// traced work and the same work with tracing off.
type segment struct {
	ops, failed int
	wall        time.Duration
	cpu         time.Duration
	mallocs     uint64
	opsPerS     float64        // ops over wall time
	repOpsPerS  []float64      // sim-*: one sample per replication
	served      float64        // admitted/arrivals, or formed/attempted
	opMS        metrics.Sample // per-op host time
	firstErr    error

	// Layer counters, summed over the segment.
	arrivals, admitted                 int
	simEvents                          uint64
	simSeconds                         float64
	deliveries, bytes, faultDrops      uint64
	cfps, proposals, declines, accepts int
	rounds                             int
	retx, dups                         uint64
	framesSent, framesDelivered        uint64
	overflows, sendErrors              uint64
	degrades, repairs                  int
	yieldSteps, yieldAttempts          int
	liveAvg                            float64
	peakLive                           int
	nodes                              int
	firstDigest                        uint64
	firstOps                           int
}

func (s *segment) perOp(x float64) float64 { return x / float64(s.ops) }

func (s *segment) addUsage(u0, u1 usage) {
	s.wall += u1.at.Sub(u0.at)
	s.cpu += u1.cpu - u0.cpu
	s.mallocs += u1.mallocs - u0.mallocs
}

// addRep folds one replication. stamps are the host times of its
// NewService calls; their gaps are the per-op host-time samples.
func (s *segment) addRep(spec simSpec, out *repOut, stamps []int64) {
	if len(s.repOpsPerS) == 0 {
		s.firstDigest, s.firstOps = out.digest, out.ops
	}
	for i := 1; i < len(stamps); i++ {
		s.opMS.Add(float64(stamps[i]-stamps[i-1]) / 1e6)
	}
	s.ops += out.ops
	s.repOpsPerS = append(s.repOpsPerS, float64(out.ops)/out.wall.Seconds())
	st := out.stats
	s.arrivals += st.Arrivals
	s.admitted += st.Admitted
	s.simEvents += st.SimEvents
	s.simSeconds += spec.horizon
	s.deliveries += out.medium.Deliveries
	s.bytes += out.medium.Bytes
	s.faultDrops += out.medium.FaultDrops
	s.cfps += out.cfps
	s.proposals += out.proposals
	s.declines += out.declines
	s.accepts += out.accepts
	s.rounds += out.rounds
	s.retx += st.Counters.Get(obs.Retransmissions)
	s.dups += st.Counters.Get(obs.Duplicates)
	s.degrades += st.Adapt.Degrades
	s.repairs += st.Adapt.Repairs
	s.yieldSteps += st.Admit.YieldSteps
	s.yieldAttempts += st.Admit.YieldAttempts
	s.liveAvg += st.LiveAvg // a sum until finish
	if st.PeakLive > s.peakLive {
		s.peakLive = st.PeakLive
	}
}

// addDrive folds one closed-loop phase on the fleet; all and organizer
// are the obs counters the phase added, fleet-wide and on node 0.
func (s *segment) addDrive(d driveOut, all, organizer obs.Snapshot) {
	s.ops += d.attempted
	s.failed += d.failed
	if s.firstErr == nil {
		s.firstErr = d.firstErr
	}
	for _, ms := range d.latMS {
		s.opMS.Add(ms)
	}
	s.rounds += d.rounds
	s.retx += all.Get(obs.Retransmissions)
	s.dups += all.Get(obs.Duplicates)
	s.deliveries += all.Get(obs.NetDelivered)
	s.framesSent += organizer.Get(obs.NetSent)
	s.framesDelivered += organizer.Get(obs.NetDelivered)
	s.overflows += all.Get(obs.NetOverflows)
	s.sendErrors += all.Get(obs.NetSendErrors)
}

// finish derives the reported figures once everything is folded in.
func (s *segment) finish() {
	s.opsPerS = float64(s.ops) / s.wall.Seconds()
	if n := len(s.repOpsPerS); n > 0 {
		s.served = float64(s.admitted) / float64(s.arrivals)
		s.liveAvg /= float64(n)
		return
	}
	s.served = float64(s.ops-s.failed) / float64(s.ops)
	s.liveAvg, s.peakLive = fleetInFlight, fleetInFlight
}

// runSimRegion runs replications 0,1,2,... of spec until the time is up
// (or exactly one, for -smoke). With a tracer every replication runs
// twice, once traced and once not, alternating which goes first, so the
// two segments did identical work under the same heap and the same
// machine weather; without one, traced is nil.
func runSimRegion(spec simSpec, seed int64, sz sizes, seconds float64, tr *tracer) (untraced, traced *segment, err error) {
	untraced = &segment{nodes: spec.nodes}
	sides := []*segment{untraced}
	if tr != nil {
		traced = &segment{nodes: spec.nodes}
		sides = append(sides, traced)
	}
	stamps := make([]int64, 0, 1<<14)
	begin := time.Now()
	for r := 0; ; r++ {
		if r > 0 && (sz.smoke || time.Since(begin).Seconds() >= seconds) {
			break
		}
		for i := range sides {
			side := sides[(i+r)%len(sides)]
			h := simHooks{stamps: &stamps}
			if side == traced {
				h.tr = tr
			}
			stamps = stamps[:0]
			u0 := readUsage()
			out, err := runRep(spec, seed, r, h)
			if err != nil {
				return nil, nil, err
			}
			side.addUsage(u0, readUsage())
			side.addRep(spec, out, stamps)
		}
	}
	for _, side := range sides {
		side.finish()
	}
	return untraced, traced, nil
}

// tracedSlices is how many alternating stretches a traced tcp-fleet
// region is cut into: traced, untraced, traced, ... on the one fleet.
const tracedSlices = 8

// runFleetRegion drives the gated closed loop on a warmed-up fleet for
// the time given (or sz.fleetOps formations), checking after every
// stretch that all six ledgers drain. With a tracer the region is cut
// into alternating traced and untraced stretches, so both segments see
// the same heap growth; without one, traced is nil. It returns the next
// unused service sequence number.
func runFleetRegion(f *fleet, seqBase int, sz sizes, seconds float64, tr *tracer) (untraced, traced *segment, next int, err error) {
	untraced = &segment{nodes: fleetNodes}
	sides := []*segment{untraced}
	slices := 1
	if tr != nil {
		traced = &segment{nodes: fleetNodes}
		sides = append(sides, traced)
		slices = tracedSlices
	}
	next = seqBase
	for i := 0; i < slices; i++ {
		side := sides[i%len(sides)]
		var sliceTr *tracer
		if side == traced {
			sliceTr = tr
		}
		all0, org0 := f.counters()
		u0 := readUsage()
		deadline := u0.at.Add(time.Duration(seconds / float64(slices) * float64(time.Second)))
		more := func(int) bool { return time.Now().Before(deadline) }
		if sz.smoke {
			perSlice := (sz.fleetOps + slices - 1) / slices
			more = func(submitted int) bool { return submitted < perSlice }
		}
		d := f.drive(fleetInFlight, next, more, sliceTr)
		side.addUsage(u0, readUsage())
		next += d.attempted
		if err := f.drained(fleetDrainWait); err != nil {
			return nil, nil, 0, err
		}
		all1, org1 := f.counters()
		side.addDrive(d, all1.Diff(all0), org1.Diff(org0))
	}
	for _, side := range sides {
		side.finish()
	}
	return untraced, traced, next, nil
}

// fleetSeqBase derives the first service sequence number of a run from
// its seed: the only input of tcp-fleet a seed can vary is which
// service IDs (and so which retry-jitter hashes) the formations carry.
func fleetSeqBase(seed int64) int {
	return int(splitmix64(uint64(seed)) % 1_000_000_000)
}

// endToEndValues turns the untraced segment into the eight end-to-end
// metrics.
func endToEndValues(seg *segment, setups []float64) (values, error) {
	if seg.opMS.N() == 0 {
		return nil, fmt.Errorf("no per-op timings: every op failed")
	}
	return values{
		"setup_s":       median(setups),
		"ops_per_s":     seg.opsPerS,
		"cpu_us_per_op": seg.perOp(float64(seg.cpu) / 1e3),
		"allocs_per_op": seg.perOp(float64(seg.mallocs)),
		"served_share":  seg.served,
		"op_p50_ms":     seg.opMS.Quantile(0.5),
		"op_p99_ms":     p99OrMax(&seg.opMS),
		"max_rss_mb":    maxRSSMiB(),
	}, nil
}
