package xp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	qnet "repro/internal/net"
	"repro/internal/proto"
	"repro/internal/radio"
)

// The interop scenario E10 and E28 share (internal/net's scenario
// helpers): six profiled nodes on a 10 m grid negotiating a three-task
// stream, over real TCP loopback sockets and against the simulator. E10
// runs the bare protocol, E28 the hardened one, with a daemon crash.
const (
	interopTotal = 6
	interopTasks = 3
	interopScale = 1.0
	e28TimeScale = 0.05 // wall seconds per virtual second; generous for CI
)

// e28Fleet boots the interop fabric in-process: daemons 1..total-1
// listening on ephemeral loopback ports, plus the dial-only organizer
// node 0, fully connected to every daemon before it returns. Every node
// runs the reliability layer retry configures.
func e28Fleet(retry proto.RetryConfig) (org *qnet.Node, daemons []*qnet.Node, err error) {
	closeAll := func() {
		for _, d := range daemons {
			d.Close()
		}
		if org != nil {
			org.Close()
		}
	}
	for i := 1; i < interopTotal; i++ {
		d := qnet.NewNode(qnet.NodeConfig{
			Endpoint: qnet.InteropEndpointConfig(radio.NodeID(i), interopTotal, "127.0.0.1:0", e28TimeScale),
			Provider: core.DefaultProviderConfig,
			Retry:    retry,
		})
		if err := d.Start(); err != nil {
			closeAll()
			return nil, nil, err
		}
		daemons = append(daemons, d)
	}
	org = qnet.NewNode(qnet.NodeConfig{
		Endpoint: qnet.InteropEndpointConfig(0, interopTotal, "", e28TimeScale),
		Provider: core.DefaultProviderConfig,
		Retry:    retry,
	})
	if err := org.Start(); err != nil {
		closeAll()
		return nil, nil, err
	}
	for i, d := range daemons {
		if err := org.Endpoint.Dial(radio.NodeID(i+1), d.Endpoint.Addr()); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	return org, daemons, nil
}

// e28Run negotiates the interop service over the TCP fabric, with the
// reliability layer retry configures (E10 runs it off). kill, when
// >= 1, closes that daemon a tenth of a virtual second into the
// negotiation — mid proposal window — simulating a daemon crash; the
// formation must still complete via the protocol's renegotiation and
// the reliability layer's timeouts. After formation the coalition is
// dissolved and every surviving daemon's ledger must drain back to full
// capacity; the returned ledgersEmpty reports whether they all did.
func e28Run(kill radio.NodeID, retry proto.RetryConfig) (res *core.Result, ledgersEmpty bool, err error) {
	org, daemons, err := e28Fleet(retry)
	if err != nil {
		return nil, false, err
	}
	defer org.Close()
	defer func() {
		for _, d := range daemons {
			d.Close()
		}
	}()

	ch := make(chan *core.Result, 4)
	svc := qnet.InteropService(interopTasks, interopScale)
	o, err := org.Submit(svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		select {
		case ch <- r:
		default:
		}
	})
	if err != nil {
		return nil, false, err
	}
	if kill >= 1 {
		time.AfterFunc(time.Duration(0.1*e28TimeScale*float64(time.Second)), func() {
			daemons[kill-1].Close()
		})
	}
	select {
	case res = <-ch:
	case <-time.After(60 * time.Second):
		return nil, false, fmt.Errorf("xp: interop TCP formation timed out")
	}

	o.Dissolve("e28 done")
	if err := org.Retire(svc.ID); err != nil {
		return nil, false, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for !ledgersEmpty && time.Now().Before(deadline) {
		ledgersEmpty = true
		for i, d := range daemons {
			if radio.NodeID(i+1) == kill {
				continue // the killed daemon is closed, not reclaimed
			}
			if d.Res.Available() != d.Res.Capacity() {
				ledgersEmpty = false
			}
		}
		if org.Res.Available() != org.Res.Capacity() {
			ledgersEmpty = false
		}
		if !ledgersEmpty {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return res, ledgersEmpty, nil
}

// e28KillTarget picks which daemon the crash variant kills: the node
// the (deterministic) simulator run assigns most tasks to — the
// coalition's backbone — falling back to daemon 1 when the winner is
// the organizer itself.
func e28KillTarget(sim *core.Result) radio.NodeID {
	counts := map[radio.NodeID]int{}
	for _, a := range sim.Assigned {
		counts[a.Node]++
	}
	best, bestN := radio.NodeID(1), 0
	for id, n := range counts {
		if id == 0 {
			continue
		}
		if n > bestN || (n == bestN && id < best) {
			best, bestN = id, n
		}
	}
	return best
}

// E28InteropTCP runs the identical neighbourhood and service through
// the discrete-event simulator and through real TCP loopback sockets
// (in-process qosnoded-equivalent daemons) and compares the resulting
// allocations. A second variant kills the coalition's strongest daemon
// mid-negotiation and requires the formation to complete anyway via
// renegotiation, with every surviving ledger ending exactly empty.
// Like E10's, the networked half races goroutines and real sockets
// against scaled wall-clock timers, so its rows are not guaranteed
// bit-identical across runs.
func E28InteropTCP(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable("E28 TCP sockets vs simulator, with daemon crash",
		"trial", "sim-members", "tcp-members", "same-assignment", "crash-tasks", "crash-survives-kill", "ledgers-empty")
	reps := repeats(cfg)
	// Real sockets and scaled wall-clock timers: replications must not
	// contend for CPU, so this experiment always runs sequentially.
	cfg.Parallel = 1
	acc, err := sweep(cfg, reps, []int{0}, func(_ int, rep Rep) ([]float64, error) {
		simRes, err := qnet.InteropSim(rep.Seed, interopTotal, interopTasks, interopScale)
		if err != nil {
			return nil, err
		}
		tcpRes, clean, err := e28Run(0, proto.DefaultRetryConfig)
		if err != nil {
			return nil, err
		}
		same := 0.0
		if qnet.SameAssignment(simRes, tcpRes) {
			same = 1
		}
		kill := e28KillTarget(simRes)
		killRes, killEmpty, err := e28Run(kill, proto.DefaultRetryConfig)
		if err != nil {
			return nil, err
		}
		avoided := 1.0
		for _, a := range killRes.Assigned {
			if a.Node == kill {
				avoided = 0
			}
		}
		empty := 0.0
		if clean && killEmpty {
			empty = 1
		}
		return []float64{
			float64(len(simRes.Members())),
			float64(len(tcpRes.Members())),
			same,
			float64(len(killRes.Assigned)),
			avoided,
			empty,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	matches, recovered := 0, 0
	for r := 0; r < reps; r++ {
		vec := acc.Get(0, r)
		if vec[2] != 0 {
			matches++
		}
		if vec[4] != 0 && vec[5] != 0 {
			recovered++
		}
		t.AddRow(r, int(vec[0]), int(vec[1]), vec[2] != 0, int(vec[3]), vec[4] != 0, vec[5] != 0)
	}
	t.Note("TCP loopback fabric; %d/%d identical allocations; %d/%d crash runs recovered with clean ledgers",
		matches, reps, recovered, reps)
	return t, nil
}
