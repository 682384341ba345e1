package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/adapt"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/metrics"
	qnet "repro/internal/net"
	"repro/internal/proto"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The probes time each layer's public functions on fixed inputs: the
// per-layer half of the cost sheet. They are the
// same on every workload, so a per-layer figure can be compared across
// workloads and across commits without asking which workload ran.

// probeTopology seeds every neighbourhood a probe builds. Like the
// workloads' own (topologySalt), it does not follow -seed: a probe's
// fixture must be the same devices on every run, or its figure would
// move with the draw. The seed still drives what is drawn on top:
// candidates, arrivals, sequence numbers.
var probeTopology = repSeed(topologySalt, "probe", 0)

// sink keeps the compiler from discarding a probed call's result.
var sink any

// probed is one probe's outcome.
type probed struct {
	ns, allocs float64
	n          int
}

// probe times body, which runs its operation n times and returns how
// long the timed part took. n grows until one call fills the budget;
// that last call is the measurement, and its malloc count gives allocs
// (which therefore include any untimed preparation inside body).
func probe(budget time.Duration, body func(n int) time.Duration) probed {
	n := 1
	for {
		d := body(n)
		if d >= budget/8 || n >= 1<<28 {
			if d > 0 {
				n = int(float64(n) * float64(budget) / float64(d))
			}
			if n < 1 {
				n = 1
			}
			break
		}
		n *= 4
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := body(n)
	runtime.ReadMemStats(&m1)
	return probed{ns: float64(d) / float64(n), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n), n: n}
}

// loop adapts a plain operation to probe's body.
func loop(op func()) func(int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		return time.Since(t0)
	}
}

// stubTimers and stubTransport let a Provider or Organizer run with no
// runtime under it: sends and timers are captured for the probe to
// deliver, fire or drop by hand.
type stubTimers struct {
	now float64
	fns []func()
}

func (t *stubTimers) Now() float64               { return t.now }
func (t *stubTimers) After(_ float64, fn func()) { t.fns = append(t.fns, fn) }

// sentMsg is a message and the node at its other end: the destination
// of a captured send, the sender of a recorded reply.
type sentMsg struct {
	peer radio.NodeID
	m    proto.Msg
}

type stubTransport struct {
	self radio.NodeID
	out  []sentMsg
}

func (t *stubTransport) Self() radio.NodeID { return t.self }
func (t *stubTransport) Send(to radio.NodeID, m proto.Msg) error {
	t.out = append(t.out, sentMsg{to, m})
	return nil
}
func (t *stubTransport) Broadcast(m proto.Msg) error {
	t.out = append(t.out, sentMsg{radio.Broadcast, m})
	return nil
}
func (t *stubTransport) CommCost(radio.NodeID, int64) float64 { return 0.001 }

// stubFormation is one negotiation walked by hand over stubs: an
// organizer for svc and one provider per profile. It yields the real
// messages of each protocol step, which the codec probes encode and the
// organizer probe replays.
type stubFormation struct {
	cat       *core.Catalog
	cfp       *proto.CFP
	proposals []sentMsg // received by the organizer
	awards    []sentMsg // sent by the organizer
	acks      []sentMsg // received by the organizer
	taskData  *proto.TaskData
	dissolve  *proto.Dissolve
}

func newStubProvider(id int, capacity resource.Vector, cat *core.Catalog) (*core.Provider, *stubTransport) {
	tr := &stubTransport{self: radio.NodeID(id)}
	p := core.NewProvider(radio.NodeID(id), resource.NewSet(capacity), cat, tr, &stubTimers{}, core.DefaultProviderConfig)
	return p, tr
}

// walkFormation runs one formation of svc against providers with the
// given capacities and records every message.
func walkFormation(svc *task.Service, capacities []resource.Vector) (*stubFormation, error) {
	f := &stubFormation{cat: core.NewCatalog()}
	if err := f.cat.RegisterService(svc); err != nil {
		return nil, err
	}
	otr, otm := &stubTransport{self: 0}, &stubTimers{}
	org, err := core.NewOrganizer(svc, otr, otm, core.DefaultOrganizerConfig, nil)
	if err != nil {
		return nil, err
	}
	org.Start()
	f.cfp = otr.out[0].m.(*proto.CFP)
	otr.out = otr.out[:0]

	provs := make([]*core.Provider, len(capacities))
	ptrs := make([]*stubTransport, len(capacities))
	for i, c := range capacities {
		provs[i], ptrs[i] = newStubProvider(i+1, c, f.cat)
		provs[i].OnMsg(0, f.cfp)
		for _, s := range ptrs[i].out {
			f.proposals = append(f.proposals, sentMsg{radio.NodeID(i + 1), s.m})
			org.OnMsg(radio.NodeID(i+1), s.m)
		}
		ptrs[i].out = ptrs[i].out[:0]
	}
	otm.fns[0]() // the proposal window closes: winners selected, awards out
	f.awards = append(f.awards, otr.out...)
	otr.out = otr.out[:0]
	for _, a := range f.awards {
		i := int(a.peer) - 1
		provs[i].OnMsg(0, a.m)
		for _, s := range ptrs[i].out {
			f.acks = append(f.acks, sentMsg{a.peer, s.m})
			org.OnMsg(a.peer, s.m)
		}
		ptrs[i].out = ptrs[i].out[:0]
	}
	for _, s := range otr.out {
		if td, ok := s.m.(*proto.TaskData); ok && f.taskData == nil {
			f.taskData = td
		}
	}
	otr.out = otr.out[:0]
	otm.fns[1]() // the ack window closes: the coalition is formed
	org.Dissolve("probe")
	for _, s := range otr.out {
		if d, ok := s.m.(*proto.Dissolve); ok {
			f.dissolve = d
		}
	}
	if len(f.proposals) == 0 || len(f.awards) == 0 || len(f.acks) == 0 || f.taskData == nil || f.dissolve == nil {
		return nil, fmt.Errorf("probe formation of %s incomplete: %d proposals, %d awards, %d acks",
			svc.ID, len(f.proposals), len(f.awards), len(f.acks))
	}
	return f, nil
}

// probeSet runs every probe with the same per-probe budget and records
// the results under their metric names.
type probeSet struct {
	seed   int64
	budget time.Duration
	v      values
	// counts of timed iterations, for the report's "n beside each timing".
	n map[string]int
}

func (ps *probeSet) ns(name string, body func(int) time.Duration) probed {
	r := probe(ps.budget, body)
	ps.v[name] = r.ns
	ps.n[name] = r.n
	return r
}

func (ps *probeSet) nsAllocs(nsName, allocsName string, body func(int) time.Duration) {
	ps.v[allocsName] = ps.ns(nsName, body).allocs
}

// runProbes measures every fixed-input per-layer metric. total is the
// host time the whole set may take; it is split evenly.
func runProbes(seed int64, total time.Duration) (values, map[string]int, error) {
	const shares = 64 // timing probes plus the multi-part ones, rounded up
	ps := &probeSet{seed: seed, budget: total / shares, v: values{}, n: map[string]int{}}
	for _, part := range []func() error{
		ps.qosAndCore, ps.stateMachines, ps.resourceSimRadio, ps.protoLayer,
		ps.netLayer, ps.sessionAdaptAdmit, ps.smallLayers,
	} {
		if err := part(); err != nil {
			return nil, nil, err
		}
	}
	return ps.v, ps.n, nil
}

func (ps *probeSet) qosAndCore() error {
	spec := workload.VideoSpec()
	req := workload.SurveillanceRequest()
	eval, err := qos.NewEvaluator(spec, &req)
	if err != nil {
		return err
	}
	level := qos.Level{
		{Dim: "video", Attr: "frame_rate"}:    qos.Int(7),
		{Dim: "video", Attr: "color_depth"}:   qos.Int(1),
		{Dim: "audio", Attr: "sampling_rate"}: qos.Int(8),
		{Dim: "audio", Attr: "sample_bits"}:   qos.Int(8),
	}
	if _, err := eval.Distance(level); err != nil {
		return err
	}
	ps.ns("qos.distance_ns", loop(func() { sink, _ = eval.Distance(level) }))

	ld, err := qos.BuildLadder(spec, &req, qos.DefaultGridSteps)
	if err != nil {
		return err
	}
	comp, err := eval.Compile(ld, nil)
	if err != nil {
		return err
	}
	asg := comp.NewAssignment() // every attribute one step below preferred
	for i := range asg {
		if ld.CanDegrade(asg, i) {
			asg[i]++
		}
	}
	ps.ns("qos.distance_compiled_ns", loop(func() { sink = comp.Distance(asg) }))
	ps.nsAllocs("qos.build_ladder_ns", "qos.build_ladder_allocs",
		loop(func() { sink, _ = qos.BuildLadder(spec, &req, qos.DefaultGridSteps) }))

	sreq := workload.StreamingRequest("probe")
	dm := workload.VideoDemand(1)
	ps.ns("core.compile_problem_ns", loop(func() { sink, _ = core.CompileProblem(spec, &sreq, dm, qos.DefaultGridSteps, nil) }))
	cp, err := core.CompileProblem(spec, &sreq, dm, qos.DefaultGridSteps, nil)
	if err != nil {
		return err
	}
	capacity := workload.PDA.Capacity
	avail := func(d resource.Vector) bool { return d.Fits(capacity) }
	if _, err := cp.Formulate(avail); err != nil {
		return err
	}
	ps.nsAllocs("core.formulate_ns", "core.formulate_allocs", loop(func() { sink, _ = cp.Formulate(avail) }))

	// Winner selection at the size sim-negotiate gives it: 4 tasks, up to
	// 16 proposers each.
	rng := rand.New(rand.NewSource(ps.seed))
	tasks := []string{"t0", "t1", "t2", "t3"}
	cands := make(map[string][]core.Candidate)
	for _, tid := range tasks {
		for n := 0; n < 16; n++ {
			cands[tid] = append(cands[tid], core.Candidate{
				Node: radio.NodeID(n), TaskID: tid, Level: level,
				Distance: float64(rng.Intn(7)) * 0.03, CommCost: float64(rng.Intn(5)) * 0.01, Copies: 1 + rng.Intn(3),
			})
		}
	}
	if sel := core.SelectWinners(tasks, cands, core.DefaultPolicy); len(sel.Assigned) == 0 {
		return fmt.Errorf("select-winners probe assigned nothing")
	}
	ps.nsAllocs("core.select_winners_ns", "core.select_winners_allocs",
		loop(func() { sink = core.SelectWinners(tasks, cands, core.DefaultPolicy) }))
	return nil
}

// organizerProbeProposals is how many providers answer the organizer
// probe's CFP: a full 16-node neighbourhood.
const organizerProbeProposals = 16

// profileCapacities draws n device capacities from the default mix.
func profileCapacities(seed int64, n int) []resource.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]resource.Vector, n)
	for i := range out {
		out[i] = workload.DefaultMix.Sample(rng).Capacity
	}
	return out
}

func (ps *probeSet) stateMachines() error {
	// The negotiation sim-negotiate runs: a 4-task session, 16 providers.
	svc := workload.SessionTemplate{Name: "probe", Tasks: 4, Scale: 1}.Instantiate(0)
	f, err := walkFormation(svc, profileCapacities(probeTopology, organizerProbeProposals))
	if err != nil {
		return err
	}

	// A provider answering that CFP, off the simulator (the path every
	// TCP daemon takes: no availability memo).
	prov, ptr := newStubProvider(1, workload.Laptop.Capacity, f.cat)
	ps.nsAllocs("core.provider_oncfp_ns", "core.provider_oncfp_allocs", loop(func() {
		prov.OnMsg(0, f.cfp)
		ptr.out = ptr.out[:0]
	}))

	// The same on a simulator-built node, where the availability memo
	// engages: the cost the sim-* workloads pay per CFP handling.
	sc, err := workload.Build(workload.DefaultScenario(probeTopology))
	if err != nil {
		return err
	}
	cl := sc.Cluster
	if err := cl.Catalog.RegisterService(svc); err != nil {
		return err
	}
	simProv := cl.Node(1).Provider
	ps.ns("core.provider_oncfp_sim_ns", func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i += 64 {
			t0 := time.Now()
			for j := 0; j < 64 && i+j < n; j++ {
				simProv.OnMsg(0, f.cfp)
			}
			d += time.Since(t0)
			cl.Run(0) // deliver the queued proposals to nobody, untimed
		}
		return d
	})

	// Award handling: reserve and acknowledge. The CFP before it and the
	// dissolve after it reset the provider and stay outside the timing.
	award := &proto.Award{ServiceID: svc.ID, Round: 0, TaskIDs: []string{"t0"}}
	dissolve := &proto.Dissolve{ServiceID: svc.ID, Reason: "probe"}
	prov.OnMsg(0, f.cfp)
	prov.OnMsg(0, award)
	if len(ptr.out) != 2 || !ptr.out[1].m.(*proto.AwardAck).OK {
		return fmt.Errorf("award probe: provider declined its own offer")
	}
	prov.OnMsg(0, dissolve)
	ps.ns("core.provider_award_ns", func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			prov.OnMsg(0, f.cfp)
			t0 := time.Now()
			prov.OnMsg(0, award)
			d += time.Since(t0)
			prov.OnMsg(0, dissolve)
			ptr.out = ptr.out[:0]
		}
		return d
	})

	// One organizer round: start, 16 proposals in, window closed by hand,
	// acks in, formed, dissolved. The proposals' share is also timed on
	// its own: rounds in the workloads rarely collect all sixteen.
	otr, otm := &stubTransport{self: 0}, &stubTimers{}
	var formed *core.Result
	var inProposals time.Duration
	onFormed := func(r *core.Result) { formed = r }
	round := func() {
		org, _ := core.NewOrganizer(svc, otr, otm, core.DefaultOrganizerConfig, onFormed)
		org.Start()
		t0 := time.Now()
		for _, p := range f.proposals {
			org.OnMsg(p.peer, p.m)
		}
		inProposals += time.Since(t0)
		otm.fns[0]()
		for _, a := range f.acks {
			org.OnMsg(a.peer, a.m)
		}
		otm.fns[1]()
		org.Dissolve("probe")
		otr.out, otm.fns = otr.out[:0], otm.fns[:0]
	}
	round()
	if formed == nil || !formed.Complete() {
		return fmt.Errorf("organizer probe: round did not form a complete coalition")
	}
	if len(f.proposals) != organizerProbeProposals {
		return fmt.Errorf("organizer probe: %d of %d providers proposed", len(f.proposals), organizerProbeProposals)
	}
	// Both figures come from the same final batch of rounds, so the round's
	// own share (total less its proposals) is a difference of like with like.
	r := ps.ns("core.organizer_round_ns", func(n int) time.Duration {
		inProposals = 0
		return loop(round)(n)
	})
	ps.v["core.organizer_round_allocs"] = r.allocs
	ps.v["core.organizer_proposal_ns"] = float64(inProposals) / float64(r.n*organizerProbeProposals)
	return nil
}

func (ps *probeSet) resourceSimRadio() error {
	set := resource.NewSet(workload.Laptop.Capacity)
	demand := resource.V(resource.KV{K: resource.CPU, A: 10}, resource.KV{K: resource.Memory, A: 4})
	ps.ns("resource.reserve_release_ns", loop(func() {
		_ = set.Reserve("probe", demand) // fits by construction
		set.Release("probe")
	}))
	ps.ns("resource.available_ns", loop(func() { sink = set.Available() }))

	// The ledger write adaptation makes: one task's reservation swapped
	// for the same task at another demand.
	prov, _ := newStubProvider(1, workload.Laptop.Capacity, core.NewCatalog())
	if err := prov.AdoptReservation(0, "probe", "t0", demand); err != nil {
		return err
	}
	demands := [2]resource.Vector{demand.Scale(0.5), demand}
	i := 0
	ps.ns("resource.resize_ns", loop(func() {
		_ = prov.ResizeReservation("probe", "t0", demands[i&1]) // both fit
		i++
	}))

	// Event loop: schedule and fire, in batches the size of a busy tick.
	eng := sim.New(ps.seed)
	nop := func(any) {}
	ps.ns("sim.event_ns", func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i += 64 {
			for j := 0; j < 64 && i+j < n; j++ {
				eng.AfterArg(float64(j)*1e-3, nop, nil)
			}
			eng.Run(0)
		}
		return time.Since(t0)
	})

	// Radio: 16 static nodes all in range, as DefaultScenario lays out.
	reng := sim.New(ps.seed)
	med := radio.NewMedium(reng, radio.Config{})
	rng := rand.New(rand.NewSource(ps.seed))
	for id := 0; id < 16; id++ {
		pos := radio.Static{X: rng.Float64() * 40, Y: rng.Float64() * 40}
		if err := med.Attach(radio.NodeID(id), pos, 100, 5e6, func(radio.NodeID, any) {}); err != nil {
			return err
		}
	}
	hb := &proto.Heartbeat{ServiceID: "probe-s0", TaskIDs: []string{"t0"}}
	ps.ns("radio.unicast_ns", func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i += 64 {
			for j := 0; j < 64 && i+j < n; j++ {
				med.Send(0, radio.NodeID(1+j%15), hb, hb.WireSize())
			}
			reng.Run(0)
		}
		return time.Since(t0)
	})
	if med.Stats.Deliveries == 0 || med.Stats.Unreachable != 0 {
		return fmt.Errorf("radio probe: %d deliveries, %d unreachable", med.Stats.Deliveries, med.Stats.Unreachable)
	}
	ps.nsAllocs("radio.broadcast16_ns", "radio.broadcast16_allocs", func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i += 4 {
			for j := 0; j < 4 && i+j < n; j++ {
				med.SendBroadcast(0, hb, hb.WireSize())
			}
			reng.Run(0)
		}
		return time.Since(t0)
	})
	return nil
}

// wireMessages returns one real message per kind the workloads emit,
// wrapped in the reliability envelope where tcp-fleet would wrap it.
func wireMessages(seed int64) (map[string]proto.Msg, error) {
	svc := fleetTemplate.Instantiate(0)
	caps := make([]resource.Vector, fleetNodes-1)
	for i := range caps {
		caps[i] = qnet.InteropProfile(i + 1).Capacity
	}
	f, err := walkFormation(svc, caps)
	if err != nil {
		return nil, err
	}
	cu, err := qnet.CatalogUpdateFor(svc)
	if err != nil {
		return nil, err
	}
	ec := qnet.InteropEndpointConfig(1, fleetNodes, "", fleetTimeScale)
	msgs := []proto.Msg{
		f.cfp, f.proposals[0].m, f.awards[0].m, f.acks[0].m, f.taskData, f.dissolve, cu,
		&proto.TaskRelease{ServiceID: svc.ID, TaskID: "t0", Round: 1, Reason: "migrated to a closer-to-preference proposal"},
		&proto.Heartbeat{ServiceID: svc.ID, TaskIDs: []string{"t0", "t1"}},
		&proto.Hello{Node: 1, X: ec.Link.Pos.X, Y: ec.Link.Pos.Y, RangeM: ec.Link.RangeM, Bitrate: ec.Link.Bitrate, Capacity: ec.Capacity},
	}
	out := make(map[string]proto.Msg, len(msgs))
	seq := splitmix64(uint64(seed)) >> 40
	for _, m := range msgs {
		kind := m.Kind()
		if proto.Retriable(m) && kind != "hello" && kind != "catalog" {
			seq++
			m = &proto.Sequenced{Seq: seq, Inner: m}
		}
		out[kind] = m
	}
	return out, nil
}

func (ps *probeSet) protoLayer() error {
	msgs, err := wireMessages(ps.seed)
	if err != nil {
		return err
	}
	var codec proto.Codec
	// The codec probes share a quarter of a probe's budget each: there
	// are twenty of them and a frame is a few hundred bytes.
	full := ps.budget
	ps.budget = full / 4
	for _, kind := range protoKinds {
		m, ok := msgs[kind]
		if !ok {
			return fmt.Errorf("codec probe: no %q message captured", kind)
		}
		frame, err := codec.Encode(m)
		if err != nil {
			return fmt.Errorf("codec probe: encode %s: %w", kind, err)
		}
		if back, err := codec.Decode(frame); err != nil || back.Kind() != kind {
			return fmt.Errorf("codec probe: %s does not round-trip: %v", kind, err)
		}
		ps.v["proto.frame_bytes."+kind] = float64(len(frame))
		ps.ns("proto.encode_ns."+kind, loop(func() { sink, _ = codec.Encode(m) }))
		ps.nsAllocs("proto.decode_ns."+kind, "proto.decode_allocs."+kind, loop(func() { sink, _ = codec.Decode(frame) }))
	}
	ps.budget = full

	// Reliable.Send over a transport and timers that cost nothing: the
	// envelope, the sequence number and the retry schedule.
	tr, tm := &stubTransport{self: 0}, &stubTimers{}
	rel := proto.NewReliable(tr, tm, proto.DefaultRetryConfig)
	award := &proto.Award{ServiceID: "probe-s0", TaskIDs: []string{"t0"}}
	ps.ns("proto.reliable_send_ns", loop(func() {
		_ = rel.Send(1, award) // the stub transport never fails
		tr.out, tm.fns = tr.out[:0], tm.fns[:0]
	}))
	var dd proto.Dedup
	var seq uint64
	ps.ns("proto.dedup_ns", loop(func() {
		seq++
		sink = dd.Duplicate(radio.NodeID(seq&3), seq>>2+1)
	}))
	return nil
}

// bareEndpoints starts n listening endpoints on the interop grid with a
// hub (node 0) dialled to all of them. Every non-hub endpoint runs
// onDelivery for each inbound message until stop is closed.
type bareEndpoints struct {
	hub   *qnet.Endpoint
	peers []*qnet.Endpoint
	stop  chan struct{}
	done  chan struct{}
}

func startBareEndpoints(n int, onDelivery func(ep *qnet.Endpoint, d qnet.Delivery)) (*bareEndpoints, error) {
	b := &bareEndpoints{stop: make(chan struct{}), done: make(chan struct{}, n)}
	b.hub = qnet.NewEndpoint(qnet.InteropEndpointConfig(0, n+1, "", fleetTimeScale))
	for i := 1; i <= n; i++ {
		ep := qnet.NewEndpoint(qnet.InteropEndpointConfig(radio.NodeID(i), n+1, "127.0.0.1:0", fleetTimeScale))
		if err := ep.Listen(); err != nil {
			b.close()
			return nil, err
		}
		b.peers = append(b.peers, ep)
		go func() {
			defer func() { b.done <- struct{}{} }()
			for {
				select {
				case <-b.stop:
					return
				case d := <-ep.Inbox():
					onDelivery(ep, d)
				}
			}
		}()
		if err := b.hub.Dial(radio.NodeID(i), ep.Addr()); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// close stops the delivery goroutines, waits for them, and closes every
// endpoint.
func (b *bareEndpoints) close() {
	close(b.stop)
	for range b.peers {
		<-b.done
	}
	for _, ep := range b.peers {
		ep.Close()
	}
	b.hub.Close()
}

// lossGuard turns a frame that never arrives into a failed probe
// instead of a hung run: every receive of a net probe also waits on it.
type lossGuard struct {
	expired <-chan time.Time
	lost    bool
}

func newLossGuard() *lossGuard { return &lossGuard{expired: time.After(30 * time.Second)} }

// recv takes n values off ch, or marks the guard lost when time is up.
func recv[T any](g *lossGuard, ch <-chan T, n int) {
	for i := 0; i < n && !g.lost; i++ {
		select {
		case <-ch:
		case <-g.expired:
			g.lost = true
		}
	}
}

func (ps *probeSet) netLayer() error {
	hb := &proto.Heartbeat{ServiceID: "probe-s0", TaskIDs: []string{"t0"}}
	guard := newLossGuard()

	// Round trip between two bare endpoints: Send, the peer's Inbox, Send
	// back, our Inbox.
	echo, err := startBareEndpoints(1, func(ep *qnet.Endpoint, d qnet.Delivery) { _ = ep.Send(d.From, d.Msg) })
	if err != nil {
		return err
	}
	ps.ns("net.rtt_us", func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = echo.hub.Send(1, hb) // a failed send trips the guard
			recv(guard, echo.hub.Inbox(), 1)
		}
		return time.Since(t0)
	})
	ps.v["net.rtt_us"] /= 1e3

	// Connect plus Hello handshake, against the echo peer's listener.
	addr := echo.peers[0].Addr()
	var dialErr error
	ps.ns("net.dial_us", func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			ep := qnet.NewEndpoint(qnet.InteropEndpointConfig(radio.NodeID(2+i%4), fleetNodes, "", fleetTimeScale))
			t0 := time.Now()
			if err := ep.Dial(1, addr); err != nil && dialErr == nil {
				dialErr = err
			}
			d += time.Since(t0)
			ep.Close()
		}
		return d
	})
	ps.v["net.dial_us"] /= 1e3
	echo.close()
	if dialErr != nil {
		return fmt.Errorf("dial probe: %w", dialErr)
	}

	// Fan-out: the hub broadcasts to five peers and waits until all five
	// have the message in hand.
	got := make(chan struct{}, 4*fleetNodes) // a round leaves five tokens; a full buffer means the guard tripped
	fan, err := startBareEndpoints(fleetNodes-1, func(*qnet.Endpoint, qnet.Delivery) {
		select {
		case got <- struct{}{}:
		default:
		}
	})
	if err != nil {
		return err
	}
	defer fan.close()
	ps.ns("net.broadcast5_us", func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			_ = fan.hub.Broadcast(hb)
			recv(guard, got, len(fan.peers))
		}
		return time.Since(t0)
	})
	ps.v["net.broadcast5_us"] /= 1e3

	// What every Submit pays before its CFP: build the catalog update and
	// write it to five sockets. Receipt is awaited outside the timing so
	// socket buffers never back up.
	svc := fleetTemplate.Instantiate(0)
	ps.ns("net.catalog_push_us", func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			cu, _ := qnet.CatalogUpdateFor(svc)
			_ = fan.hub.Broadcast(cu)
			d += time.Since(t0)
			recv(guard, got, len(fan.peers))
		}
		return d
	})
	ps.v["net.catalog_push_us"] /= 1e3
	if guard.lost {
		return fmt.Errorf("net probes: a frame sent between bare endpoints never arrived")
	}

	// Timer slip: how late Timers().After fires, with a hundred timers
	// pending at once the way a busy organizer has them.
	tm := fan.hub.Timers()
	const batch = 100
	var slips metrics.Sample
	late := make(chan float64, batch)
	deadline := time.Now().Add(ps.budget)
	for time.Now().Before(deadline) || slips.N() < 100*tailMinBeyond {
		for i := 0; i < batch; i++ {
			virtual := 0.05 + float64(i)*0.0025 // 1 ms to 6 ms of wall time
			wall := time.Duration(virtual * fleetTimeScale * float64(time.Second))
			t0 := time.Now()
			tm.After(virtual, func() { late <- float64(time.Since(t0)-wall) / 1e3 })
		}
		for i := 0; i < batch; i++ {
			slips.Add(<-late)
		}
	}
	ps.v["net.timer_slip_p99_us"] = p99OrMax(&slips)
	ps.n["net.timer_slip_p99_us"] = slips.N()
	return nil
}

func (ps *probeSet) sessionAdaptAdmit() error {
	// A 16-node engine with no arrivals: what the sampling tick and an
	// idle neighbourhood cost per simulated second.
	tmpl := workload.SessionTemplate{Name: "probe", Tasks: 3, Scale: 1}
	var idleErr error
	ps.ns("session.idle_us_per_simsec", func(n int) time.Duration {
		sc, err := workload.Build(workload.DefaultScenario(probeTopology))
		if err != nil {
			idleErr = err
			return time.Second
		}
		eng, err := session.New(sc.Cluster, session.Config{
			Arrivals: arrival.Poisson{Rate: 0}, NewService: tmpl.Instantiate,
			HoldMean: 1, Horizon: float64(n) + 1, Organizer: core.DefaultOrganizerConfig,
		}, ps.seed)
		if err != nil {
			idleErr = err
			return time.Second
		}
		t0 := time.Now()
		if _, err := eng.Run(); err != nil {
			idleErr = err
		}
		return time.Since(t0)
	})
	if idleErr != nil {
		return fmt.Errorf("idle-engine probe: %w", idleErr)
	}
	ps.v["session.idle_us_per_simsec"] /= 1e3

	// A neighbourhood with six live sessions under the adaptation engine,
	// at rest: the scans find nothing to do, which is what most ticks find.
	scfg := workload.DefaultScenario(probeTopology)
	scfg.Mix = workload.ChurnMix
	sc, err := workload.Build(scfg)
	if err != nil {
		return err
	}
	cl := sc.Cluster
	ocfg := core.DefaultOrganizerConfig
	ocfg.Monitor, ocfg.Reconfigure = false, false
	var orgs []*core.Organizer
	for i := 0; i < 6; i++ {
		org, err := cl.Submit(float64(i), 0, tmpl.Instantiate(i), ocfg, nil)
		if err != nil {
			return err
		}
		orgs = append(orgs, org)
	}
	now := cl.Run(10)
	ad, err := adapt.New(cl, adapt.Config{OnChurn: adapt.DegradeToFit, DegradeOnPressure: true, UpgradeOnSlack: true}, 0)
	if err != nil {
		return err
	}
	admitted := 0
	for _, org := range orgs {
		if n, _ := org.AssignedDistanceSum(); n == tmpl.Tasks {
			if err := ad.Admit(now, 0, org, true); err != nil {
				return err
			}
			admitted++
		}
	}
	if admitted == 0 {
		return fmt.Errorf("adapt probe: no session formed")
	}
	ps.ns("adapt.tick_ns", loop(func() { ad.Tick(now) }))
	ps.ns("adapt.epoch_scan_ns", loop(func() { ad.EpochScan(now) }))

	// Yield pricing for one arriving session: its best utility, the
	// incumbent degrade steps that buys, and the rollback.
	arriving := tmpl.Instantiate(99)
	steps := 0
	ps.ns("admit.yield_ns", loop(func() {
		gain, _ := ad.SessionBestUtility(arriving)
		steps, _ = ad.Yield(now, arriving.ID, gain, 8)
		ad.YieldResolve(now, arriving.ID, false)
	}))
	if steps == 0 {
		return fmt.Errorf("yield probe: no incumbent degrade step was bought")
	}
	return nil
}

func (ps *probeSet) smallLayers() error {
	rng := rand.New(rand.NewSource(ps.seed))
	pois := arrival.Poisson{Rate: 1}
	t := 0.0
	ps.ns("arrival.next_ns", loop(func() { t = pois.Next(t, rng) }))

	tmpl := workload.SessionTemplate{Name: "probe", Tasks: 4, Scale: 1}
	seq := 0
	ps.ns("workload.instantiate_ns", loop(func() {
		sink = tmpl.Instantiate(seq)
		seq++
	}))
	ps.ns("workload.build_ns", loop(func() { sink, _ = workload.Build(workload.DefaultScenario(probeTopology)) }))

	ids := make([]radio.NodeID, 16)
	for i := range ids {
		ids[i] = radio.NodeID(i)
	}
	inj, err := faults.New(ps.seed, 1e12, ids, faults.Plan{Loss: chaosLoss})
	if err != nil {
		return err
	}
	now := 0.0
	ps.ns("faults.intercept_ns", loop(func() {
		now += 1e-3
		sink = inj.DeliverFate(now, 1, 2, 100)
	}))

	var rec *trace.Recorder
	ps.ns("trace.recorder_nil_ns", loop(func() { rec.Point(1, 0, "engine", "arrival", "probe-s0") }))

	// Snapshot and fold, at the size a 16-node retrying cluster has.
	scfg := workload.DefaultScenario(probeTopology)
	scfg.Retry = proto.DefaultRetryConfig
	sc, err := workload.Build(scfg)
	if err != nil {
		return err
	}
	ps.ns("obs.snapshot_ns", loop(func() { sink = sc.Cluster.Obs.Snapshot() }))
	var shard [2]*session.Stats
	for i := range shard {
		out, err := runRep(simSpecs[2].smoke(), ps.seed, i, simHooks{})
		if err != nil {
			return err
		}
		shard[i] = out.stats
	}
	ps.ns("fabric.merge_ns", loop(func() {
		city := *shard[0]
		city.Merge(shard[1])
		sink = city.Arrivals
	}))

	// Two independent shards on two workers against one: what the fabric's
	// fan-out buys on this machine. Alternated, medians compared.
	city := fabric.Config{
		City:     workload.CityScenario{Rows: 1, Cols: 2, NodesPerShard: 16, TotalRate: 0.2, Profile: workload.CityUniform},
		Template: workload.SessionTemplate{Name: "probe-city", Tasks: 3, Scale: 1},
		HoldMean: 40, Horizon: 300, Warmup: 60,
		Organizer: core.DefaultOrganizerConfig, Seed: ps.seed,
	}
	var wall [2][]float64
	for i := 0; i < 3; i++ {
		for w := 0; w < 2; w++ {
			city.Parallel = w + 1
			t0 := time.Now()
			if _, err := fabric.Run(city); err != nil {
				return err
			}
			wall[w] = append(wall[w], time.Since(t0).Seconds())
		}
	}
	ps.v["fabric.par2_speedup"] = median(wall[0]) / median(wall[1])
	return nil
}

// saturation is the non-gating phase past the gated point: the same
// fleet shape at fleetSatFlight formations in flight. Failures here are
// reported, not fatal, and the ledgers are not required to drain.
func saturation(seed int64, seconds float64) (values, error) {
	f, err := fleetSetup(fleetWarmup/2, fleetSeqBase(seed))
	if err != nil {
		return nil, err
	}
	defer f.close()
	u0 := readUsage()
	deadline := u0.at.Add(time.Duration(seconds * float64(time.Second)))
	d := f.drive(fleetSatFlight, fleetSeqBase(seed)+fleetWarmup, func(int) bool { return time.Now().Before(deadline) }, nil)
	u1 := readUsage()
	return values{
		"net.sat_ops_per_s":     float64(d.attempted) / d.wall.Seconds(),
		"net.sat_op_p99_ms":     p99OrMax(sampleOf(d.latMS)),
		"net.sat_failed_share":  float64(d.failed) / float64(d.attempted),
		"net.sat_cpu_us_per_op": float64(u1.cpu-u0.cpu) / 1e3 / float64(d.attempted),
	}, nil
}
