package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	qnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/workload"
)

// The tcp-fleet workload: an in-process loopback fleet built the way
// experiment E28 builds it, driven closed-loop by one goroutine. An op
// is one formation: Submit, first onFormed, Dissolve.
const (
	fleetNodes = 6 // dial-only organizer node 0 plus five daemons
	// fleetTimeScale is E28's: 12.5 ms proposal and ack windows. At the
	// daemons' default 0.02 (5 ms windows) about one formation in 5000
	// ends unserved on a 2-core box: net.Node keeps every organizer it ever
	// ran, the heap grows, and by 3000 formations a GC mark phase lasts as
	// long as all six rounds of a formation. A benchmark's ops must not
	// fail, so the gated point sits where they do not (README.md, open
	// observations).
	fleetTimeScale = 0.05
	fleetInFlight  = 2 // the gated point: one formation per core of the sizing box
	fleetSatFlight = 8 // the non-gating saturation phase
	fleetWarmup    = 100
	fleetDeadline  = 5 * time.Second // no result by then: the formation failed
	fleetDrainWait = 5 * time.Second
)

var fleetTemplate = workload.SessionTemplate{Name: "fleet", Tasks: 3, Scale: 0.02}

// fleet is the running loopback fabric.
type fleet struct {
	org     *qnet.Node
	daemons []*qnet.Node
	formed  int // formations driven through this fleet so far
}

// startFleet boots the daemons on ephemeral loopback ports and the
// organizer node, fully dialled and handshaken before it returns.
func startFleet() (*fleet, error) {
	f := &fleet{}
	node := func(id int, listen string) *qnet.Node {
		return qnet.NewNode(qnet.NodeConfig{
			Endpoint: qnet.InteropEndpointConfig(radio.NodeID(id), fleetNodes, listen, fleetTimeScale),
			Provider: core.DefaultProviderConfig,
			Retry:    proto.DefaultRetryConfig,
		})
	}
	for i := 1; i < fleetNodes; i++ {
		d := node(i, "127.0.0.1:0")
		if err := d.Start(); err != nil {
			f.close()
			return nil, err
		}
		f.daemons = append(f.daemons, d)
	}
	f.org = node(0, "")
	if err := f.org.Start(); err != nil {
		f.close()
		return nil, err
	}
	for i, d := range f.daemons {
		if err := f.org.Endpoint.Dial(radio.NodeID(i+1), d.Endpoint.Addr()); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) nodes() []*qnet.Node {
	if f.org == nil {
		return f.daemons
	}
	return append([]*qnet.Node{f.org}, f.daemons...)
}

// close stops every node and waits for its goroutines.
func (f *fleet) close() {
	for _, n := range f.nodes() {
		n.Close()
	}
}

// counters sums the fleet's obs registries; organizer is node 0's alone.
func (f *fleet) counters() (all, organizer obs.Snapshot) {
	all = obs.Snapshot{}
	for _, n := range f.nodes() {
		all = all.Merge(n.Endpoint.Obs().Snapshot())
	}
	return all, f.org.Endpoint.Obs().Snapshot()
}

// drained polls until all six ledgers are back at full capacity.
func (f *fleet) drained(wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		busy := -1
		for i, n := range f.nodes() {
			if n.Res.Available() != n.Res.Capacity() {
				busy = i
			}
		}
		if busy < 0 {
			return nil
		}
		if time.Now().After(deadline) {
			n := f.nodes()[busy]
			return fmt.Errorf("tcp-fleet: node %d ledger not empty %v after the last dissolve: available %v of %v",
				busy, wait, n.Res.Available(), n.Res.Capacity())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// driveOut is what one closed-loop phase measured.
type driveOut struct {
	attempted, failed int
	rounds            int
	wall              time.Duration
	latMS             []float64 // Submit to onFormed, successful formations
	firstErr          error     // why the first failed formation failed
}

type inFlight struct {
	org   *core.Organizer
	start time.Time
	span  int
}

type formedMsg struct {
	seq int
	res *core.Result
	at  time.Time
}

// drive keeps n formations in flight from one goroutine while more(how
// many were submitted so far) holds, then lets the ones in flight finish. seqBase offsets the
// service IDs so phases on one fleet never collide.
func (f *fleet) drive(n int, seqBase int, more func(submitted int) bool, tr *tracer) driveOut {
	var out driveOut
	live := make(map[int]*inFlight, n)
	// Each formation sends at most once (the first-result guard below); the
	// slack absorbs results of formations already written off as timed out.
	results := make(chan formedMsg, 4*n)
	formName, submitName, dissolveName := tr.name("formation"), tr.name("net.submit"), tr.name("core.dissolve")
	next := 0
	begin := time.Now()

	submit := func() {
		seq := seqBase + next
		next++
		svc := fleetTemplate.Instantiate(seq)
		fl := &inFlight{start: time.Now()}
		fl.span = tr.begin(formName, seq, -1)
		var first atomic.Bool
		sp := tr.begin(submitName, seq, fl.span)
		org, err := f.org.Submit(svc, core.DefaultOrganizerConfig, func(r *core.Result) {
			if first.CompareAndSwap(false, true) {
				select {
				case results <- formedMsg{seq: seq, res: r, at: time.Now()}:
				default:
				}
			}
		})
		tr.end(sp)
		out.attempted++
		if err != nil {
			out.fail(fmt.Errorf("submit %s: %w", svc.ID, err))
			tr.end(fl.span)
			return
		}
		fl.org = org
		live[seq] = fl
	}
	finish := func(seq int, fl *inFlight, reason string) {
		delete(live, seq)
		sp := tr.begin(dissolveName, seq, fl.span)
		fl.org.Dissolve(reason)
		tr.end(sp)
		f.formed++
	}

	for len(live) < n && more(next) {
		submit()
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for len(live) > 0 {
		select {
		case m := <-results:
			fl, ok := live[m.seq]
			if !ok {
				continue // already written off
			}
			tr.endAt(fl.span, m.at)
			if err := checkFormation(m.res); err != nil {
				out.fail(err)
			} else {
				out.latMS = append(out.latMS, float64(m.at.Sub(fl.start))/1e6)
			}
			out.rounds += m.res.Rounds
			finish(m.seq, fl, "benchmark: formed")
		case now := <-tick.C:
			for seq, fl := range live {
				if now.Sub(fl.start) > fleetDeadline {
					out.fail(fmt.Errorf("formation %d: no result within %v", seq, fleetDeadline))
					tr.endAt(fl.span, now)
					finish(seq, fl, "benchmark: timed out")
				}
			}
		}
		for len(live) < n && more(next) {
			submit()
		}
	}
	out.wall = time.Since(begin)
	return out
}

func (o *driveOut) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// checkFormation is the per-op output check: every task served, and
// served by a node that exists. Extra rounds are not failures.
func checkFormation(r *core.Result) error {
	if len(r.Unserved) > 0 {
		return fmt.Errorf("formation %s: %d task(s) unserved after %d round(s)", r.ServiceID, len(r.Unserved), r.Rounds)
	}
	if len(r.Assigned) != fleetTemplate.Tasks {
		return fmt.Errorf("formation %s: %d of %d tasks assigned", r.ServiceID, len(r.Assigned), fleetTemplate.Tasks)
	}
	for tid, a := range r.Assigned {
		if a.Node < 0 || int(a.Node) >= fleetNodes {
			return fmt.Errorf("formation %s: task %s assigned to node %d, not in the fleet", r.ServiceID, tid, a.Node)
		}
	}
	return nil
}

// fleetSetup is the untimed part of a tcp-fleet run: boot, dial,
// handshake, and the warm-up formations that fill every cache (compiled
// problems, catalog entries, connection buffers).
func fleetSetup(warmup int, seqBase int) (*fleet, error) {
	f, err := startFleet()
	if err != nil {
		return nil, err
	}
	w := f.drive(fleetInFlight, seqBase, func(submitted int) bool { return submitted < warmup }, nil)
	if w.failed > 0 {
		f.close()
		return nil, fmt.Errorf("tcp-fleet warm-up: %d of %d formations failed: %w", w.failed, w.attempted, w.firstErr)
	}
	return f, nil
}
