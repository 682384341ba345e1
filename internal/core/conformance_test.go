package core_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	qnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/radio"
	"repro/internal/task"
	"repro/internal/workload"
)

// neighbourhood is a two-node deployment of one runtime — node 0 a
// phone that organizes, node 1 a laptop 10 m away — reduced to what the
// conformance table needs from it.
type neighbourhood struct {
	hosts  []*core.Host
	submit func(*task.Service, core.OrganizerConfig, func(*core.Result)) (*core.Organizer, error)
	// settle drives the runtime until cond holds and reports whether it
	// did: simulated time on the simulator, wall time on the others.
	settle func(cond func() bool) bool
	obs    func() obs.Snapshot
	// stop ends delivery, after which the test may call Deliver itself.
	stop func()
	// connected: the transport is a proto.Connected one, so the
	// reliability layer retransmits on evidence of loss, not blindly.
	connected bool
}

var conformanceProfiles = []workload.Profile{workload.Phone, workload.Laptop}

func simNeighbourhood(t *testing.T, retry proto.RetryConfig) *neighbourhood {
	cl := core.NewCluster(7, radio.Config{ProcDelay: 0.001}, core.DefaultProviderConfig)
	if err := cl.SetRetry(retry); err != nil {
		t.Fatal(err)
	}
	nb := &neighbourhood{obs: cl.Obs.Snapshot, stop: func() {}}
	for i, p := range conformanceProfiles {
		n, err := cl.AddNode(workload.NodeSpecFor(radio.NodeID(i), p, radio.Static{X: 10 * float64(i)}))
		if err != nil {
			t.Fatal(err)
		}
		nb.hosts = append(nb.hosts, n.Host)
	}
	nb.submit = func(svc *task.Service, cfg core.OrganizerConfig, onFormed func(*core.Result)) (*core.Organizer, error) {
		return cl.Submit(cl.Eng.Now(), 0, svc, cfg, onFormed)
	}
	nb.settle = func(cond func() bool) bool {
		for i := 0; i < 100 && !cond(); i++ {
			cl.Run(cl.Eng.Now() + 0.1)
		}
		return cond()
	}
	return nb
}

// pollWall is settle for the wall-clock runtimes.
func pollWall(cond func() bool) bool {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func liveNeighbourhood(t *testing.T, retry proto.RetryConfig) *neighbourhood {
	rt := live.NewRuntime(live.Config{TimeScale: 0.01, Provider: core.DefaultProviderConfig, Retry: retry})
	var once sync.Once // Shutdown may run once; the table stops early, Cleanup covers a Fatal
	stop := func() { once.Do(rt.Shutdown) }
	t.Cleanup(stop)
	nb := &neighbourhood{obs: rt.Obs.Snapshot, settle: pollWall, stop: stop}
	for i, p := range conformanceProfiles {
		n, err := rt.AddNode(radio.NodeID(i), radio.Pos{X: 10 * float64(i)}, p.RangeM, p.Bitrate, p.Capacity)
		if err != nil {
			t.Fatal(err)
		}
		nb.hosts = append(nb.hosts, n.Host)
	}
	nb.submit = rt.Node(0).Submit
	return nb
}

func netNeighbourhood(t *testing.T, retry proto.RetryConfig) *neighbourhood {
	var nodes []*qnet.Node
	nb := &neighbourhood{settle: pollWall, connected: true}
	nb.stop = func() {
		for _, n := range nodes {
			n.Close()
		}
	}
	t.Cleanup(nb.stop)
	for i, p := range conformanceProfiles {
		n := qnet.NewNode(qnet.NodeConfig{
			Endpoint: qnet.Config{
				Self:       radio.NodeID(i),
				ListenAddr: "127.0.0.1:0",
				Link:       radio.Link{Pos: radio.Pos{X: 10 * float64(i)}, RangeM: p.RangeM, Bitrate: p.Bitrate},
				Capacity:   p.Capacity,
				TimeScale:  0.01,
			},
			Provider: core.DefaultProviderConfig,
			Retry:    retry,
		})
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		nb.hosts = append(nb.hosts, n.Host)
	}
	if err := nodes[0].Endpoint.Dial(1, nodes[1].Endpoint.Addr()); err != nil {
		t.Fatal(err)
	}
	nb.submit = nodes[0].Submit
	nb.obs = func() obs.Snapshot {
		return nodes[0].Endpoint.Obs().Snapshot().Merge(nodes[1].Endpoint.Obs().Snapshot())
	}
	return nb
}

// TestRuntimeConformance holds the one node assembly to the same
// behaviour on all three runtimes, with and without the reliability
// layer: what Organize, Retire, Deliver and the counter registration
// promise is promised by core.Host, so it is asserted once, here, and
// not per runtime.
func TestRuntimeConformance(t *testing.T) {
	runtimes := []struct {
		name  string
		build func(*testing.T, proto.RetryConfig) *neighbourhood
	}{
		{"sim", simNeighbourhood},
		{"live", liveNeighbourhood},
		{"net", netNeighbourhood},
	}
	retries := []struct {
		name string
		cfg  proto.RetryConfig
	}{
		{"bare", proto.RetryConfig{}},
		{"retry", proto.DefaultRetryConfig},
	}
	for _, rtm := range runtimes {
		for _, retry := range retries {
			t.Run(rtm.name+"/"+retry.name, func(t *testing.T) {
				conformance(t, rtm.build(t, retry.cfg), retry.cfg.Enabled())
			})
		}
	}
}

func conformance(t *testing.T, nb *neighbourhood, retry bool) {
	ledgersFull := func() bool {
		for _, h := range nb.hosts {
			if h.Res.Available() != h.Res.Capacity() {
				return false
			}
		}
		return true
	}

	// The hardening counters are in the snapshot from the start,
	// whatever the run goes on to enable.
	snap := nb.obs()
	for _, name := range []string{obs.Retransmissions, obs.Duplicates, obs.StaleReleases} {
		if _, ok := snap[name]; !ok {
			t.Errorf("%s not registered", name)
		}
	}

	formed := make(chan *core.Result, 8)
	cfg := core.DefaultOrganizerConfig
	o, err := nb.submit(workload.StreamService("conf", 1, 1.0), cfg, func(r *core.Result) {
		select {
		case formed <- r:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var res *core.Result
	if !nb.settle(func() bool {
		select {
		case res = <-formed:
		default:
		}
		return res != nil
	}) {
		t.Fatal("formation did not complete")
	}
	if !res.Complete() {
		t.Fatalf("incomplete formation: unserved %v", res.Unserved)
	}
	if ledgersFull() {
		t.Error("formed coalition holds no reservation")
	}

	// A duplicate is refused before it can touch any catalog: its spec
	// goes by a name nothing else registers.
	dup := workload.StreamService("conf", 1, 1.0)
	spec := *dup.Spec
	spec.Name = "dup-only"
	dup.Spec = &spec
	if _, err := nb.submit(dup, cfg, nil); err == nil {
		t.Error("duplicate service accepted")
	}

	if err := nb.hosts[0].Retire("conf"); err == nil {
		t.Error("Retire forgot an organizer that is not dissolved")
	}
	o.Dissolve("conformance done")
	if !nb.settle(ledgersFull) {
		for i, h := range nb.hosts {
			t.Errorf("node %d ledger after dissolve: %v of %v", i, h.Res.Available(), h.Res.Capacity())
		}
	}

	// On a best-effort link retransmission is blind: the counter moves
	// exactly when the layer is on. On a connected one a clean formation
	// loses nothing, so nothing is sent twice.
	if retx := nb.obs().Get(obs.Retransmissions); (retry && !nb.connected) != (retx > 0) {
		t.Errorf("%s = %d with retry=%v connected=%v", obs.Retransmissions, retx, retry, nb.connected)
	}

	nb.stop()
	if nb.connected {
		// The windows are their loops'; read them once those have stopped.
		for i, h := range nb.hosts {
			if dup := h.Duplicates(); dup != 0 {
				t.Errorf("node %d suppressed %d duplicates on a clean connected run", i, dup)
			}
		}
	}
	for i, h := range nb.hosts {
		if _, ok := h.Catalog().Spec("dup-only"); ok {
			t.Errorf("node %d: the rejected duplicate reached the catalog", i)
		}
	}
	hb := &proto.Heartbeat{ServiceID: "conf"}
	if !nb.hosts[0].Deliver(1, hb) {
		t.Error("no route to a dissolved organizer that was not retired")
	}
	for i := 0; i < 2; i++ { // the second call: retiring twice is a no-op
		if err := nb.hosts[0].Retire("conf"); err != nil {
			t.Errorf("Retire #%d: %v", i+1, err)
		}
	}
	if nb.hosts[0].Deliver(1, hb) {
		t.Error("a retired service still has a route")
	}
}
