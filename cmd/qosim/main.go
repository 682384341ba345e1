// Command qosim runs a single coalition-formation scenario and prints
// the outcome: who serves which task, at which QoS level, at what
// distance from the user's preferences, plus negotiation statistics.
//
// Usage:
//
//	qosim [-seed N] [-nodes N] [-tasks N] [-scale F] [-service kind]
//	      [-mobile] [-loss F] [-fail N] [-verbose]
//
// Service kinds: stream (default), surveillance, offload.
//
// With -open, qosim instead drives the open-system session lifecycle
// (continuous arrivals, holding times, departures) to a horizon and
// prints steady-state statistics:
//
//	qosim -open [-rate F] [-hold F] [-horizon F] [-churn F]
//	      [-adapt off|kill|migrate|degrade] [-admit block|queue|yield]
//	      [-faults]
//
// -churn sets node leaves per hour; -adapt picks the mid-session QoS
// adaptation policy applied when churn orphans a live session's tasks
// (see internal/adapt). "degrade" additionally enables
// utilisation-pressure QoS shedding and epoch-driven upgrade
// reclamation at the engine defaults.
//
// -admit picks the admission policy for blocked arrivals (see
// internal/admit): "block" rejects immediately (the default economy),
// "queue" lets them wait out congestion with the default deadline and
// retry cadence, "yield" admits them by degrading incumbents when the
// marginal utility gain exceeds the drift cost (this implies the
// adaptation engine; -adapt off is promoted to a minimal config).
//
// -faults is the chaos quick-start: it runs the open system against a
// representative deterministic fault plan (i.i.d. + bursty loss, delay
// spikes, duplication, node freezes, transient 2-way partitions; see
// internal/faults) with the protocol's reliability layer on, and
// reports what the adversary did and what the hardening recovered.
//
// With -connect, qosim becomes the organizer of a networked fabric: it
// joins a fleet of qosnoded daemons over TCP as node 0 of the interop
// topology, negotiates the service with the remote providers (its own
// in-process provider participates too), prints the allocation, and —
// unless -compare=false — replays the identical scenario on the
// discrete-event simulator and reports interop: MATCH or MISMATCH:
//
//	qosim -connect "1=127.0.0.1:7001,2=127.0.0.1:7002,..." [-tasks N]
//	      [-scale F] [-seed N] [-timescale F] [-compare=true]
//
// Daemon ids must be contiguous from 1; daemons must have been started
// with -nodes equal to the number of daemons plus one.
//
// Observability flags (both modes unless noted):
//
//	-trace-out FILE   write the structured flight-recorder trace as
//	                  JSONL (open mode: engine events; one-shot mode:
//	                  protocol events)
//	-cpuprofile FILE  write a pprof CPU profile of the run
//	-memprofile FILE  write a pprof heap profile taken after the run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/admit"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/faults"
	qosnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/qos"
	"repro/internal/radio"
	"repro/internal/resource"
	"repro/internal/session"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/workload"
)

// options is the parsed command line.
type options struct {
	seed      int64
	nodes     int
	tasks     int
	scale     float64
	kind      string
	mobile    bool
	loss      float64
	fail      int
	verbose   bool
	showTrace bool

	connect   string
	compare   bool
	timeScale float64

	open    bool
	rate    float64
	hold    float64
	horizon float64
	churn   float64
	adapt   string
	admit   string
	faults  bool

	traceOut   string
	cpuProfile string
	memProfile string
}

// parseFlags parses args (without the program name) into options.
func parseFlags(args []string, errw io.Writer) (*options, error) {
	fs := flag.NewFlagSet("qosim", flag.ContinueOnError)
	fs.SetOutput(errw)
	o := &options{}
	fs.Int64Var(&o.seed, "seed", 1, "scenario seed")
	fs.IntVar(&o.nodes, "nodes", 12, "population size")
	fs.IntVar(&o.tasks, "tasks", 4, "tasks in the requested service")
	fs.Float64Var(&o.scale, "scale", 1.5, "demand scale factor")
	fs.StringVar(&o.kind, "service", "stream", "one-shot mode: service template: stream | surveillance | offload")
	fs.BoolVar(&o.mobile, "mobile", false, "one-shot mode: random-waypoint mobility")
	fs.Float64Var(&o.loss, "loss", 0, "one-shot mode: radio loss probability [0,1)")
	fs.IntVar(&o.fail, "fail", 0, "one-shot mode: kill N coalition members at t=5s")
	fs.BoolVar(&o.verbose, "verbose", false, "one-shot mode: print per-node detail")
	fs.BoolVar(&o.showTrace, "trace", false, "one-shot mode: print the protocol event timeline")
	fs.StringVar(&o.connect, "connect", "", `networked mode: comma-separated "id=host:port" qosnoded peers`)
	fs.BoolVar(&o.compare, "compare", true, "networked mode: replay the scenario on the simulator and report MATCH/MISMATCH")
	fs.Float64Var(&o.timeScale, "timescale", 0.02, "networked mode: wall-clock seconds per virtual protocol second")
	fs.BoolVar(&o.open, "open", false, "run the open-system session lifecycle instead of one formation")
	fs.Float64Var(&o.rate, "rate", 0.1, "open mode: session arrivals per second")
	fs.Float64Var(&o.hold, "hold", 40, "open mode: mean session holding time (s)")
	fs.Float64Var(&o.horizon, "horizon", 600, "open mode: simulated span (s); warmup is horizon/10")
	fs.Float64Var(&o.churn, "churn", 0, "open mode: node leaves per hour (0 = no churn)")
	fs.StringVar(&o.adapt, "adapt", "off", "open mode: mid-session QoS adaptation: off | kill | migrate | degrade")
	fs.StringVar(&o.admit, "admit", "block", "open mode: admission policy for blocked arrivals: block | queue | yield")
	fs.BoolVar(&o.faults, "faults", false, "open mode: inject the representative deterministic fault plan with the reliability layer on")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the flight-recorder trace as JSONL to FILE")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to FILE")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to FILE (taken after the run)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch o.adapt {
	case "off", "kill", "migrate", "degrade":
	default:
		err := fmt.Errorf("qosim: unknown -adapt policy %q (off | kill | migrate | degrade)", o.adapt)
		fmt.Fprintln(errw, err)
		return nil, err
	}
	if _, err := admit.ParsePolicy(o.admit); err != nil {
		err = fmt.Errorf("qosim: unknown -admit policy %q (block | queue | yield)", o.admit)
		fmt.Fprintln(errw, err)
		return nil, err
	}
	return o, nil
}

// runOpen drives the open-system session lifecycle and prints its
// steady-state report.
func runOpen(o *options, out io.Writer) error {
	scfg := workload.DefaultScenario(o.seed)
	scfg.Nodes = o.nodes
	// No churn-proof access-point giant: churn and adaptation act on
	// real coalitions.
	scfg.Mix = workload.ChurnMix
	if o.faults {
		scfg.Retry = proto.DefaultRetryConfig
	}
	sc, err := workload.Build(scfg)
	if err != nil {
		return err
	}
	ocfg := core.DefaultOrganizerConfig
	cfg := session.Config{
		Arrivals:   arrival.Poisson{Rate: o.rate},
		NewService: workload.SessionTemplate{Name: "qosim", Tasks: o.tasks, Scale: o.scale}.Instantiate,
		HoldMean:   o.hold,
		Horizon:    o.horizon,
		Warmup:     o.horizon / 10,
		Organizer:  ocfg,
	}
	if o.churn > 0 {
		cfg.Churn = &session.ChurnConfig{
			Leave:    arrival.Poisson{Rate: o.churn / 3600},
			DownMean: 30,
		}
	}
	var inj *faults.Injector
	if o.faults {
		plan := faults.Plan{
			Loss:      0.05,
			Burst:     &faults.BurstLoss{LossOn: 0.8, MeanOn: 3, MeanOff: 30},
			DelayProb: 0.05, DelayMean: 0.1,
			DupProb: 0.05, DupLag: 0.02,
			Freeze:    &faults.FreezePlan{Rate: 0.02, MeanDur: 20, Protected: []radio.NodeID{0}},
			Partition: &faults.PartitionPlan{K: 2, Every: 120, Len: 15},
		}
		inj, err = faults.New(o.seed, o.horizon, sc.Cluster.Nodes(), plan)
		if err != nil {
			return err
		}
		cfg.Faults = inj
		cfg.ReconcileEvery = 10
	}
	if o.adapt != "off" {
		policy := adapt.KillAffected
		acfg := &adapt.Config{}
		switch o.adapt {
		case "migrate":
			policy = adapt.MigrateExact
		case "degrade":
			policy = adapt.DegradeToFit
			acfg.DegradeOnPressure = true
			acfg.UpgradeOnSlack = true
		}
		acfg.OnChurn = policy
		cfg.Adapt = acfg
		// The adaptation engine owns churn repair; keep the protocol
		// monitor out of its way (DESIGN.md §10).
		cfg.Organizer.Monitor = false
		cfg.Organizer.Reconfigure = false
	}
	if pol, _ := admit.ParsePolicy(o.admit); pol != admit.Block {
		cfg.Admission = &admit.Config{Policy: pol}
		if pol == admit.Yield && cfg.Adapt == nil {
			// Yield degrades incumbents through the adaptation engine;
			// promote -adapt off to a minimal config that owns the
			// ladder bookkeeping (and the monitor hand-off above).
			cfg.Adapt = &adapt.Config{OnChurn: adapt.DegradeToFit}
			cfg.Organizer.Monitor = false
			cfg.Organizer.Reconfigure = false
		}
	}
	var journal *trace.Journal
	if o.traceOut != "" {
		journal = trace.NewJournal()
		cfg.Trace = trace.NewRecorder(journal.Scope(trace.ScopeName("qosim", 0)))
	}
	eng, err := session.New(sc.Cluster, cfg, o.seed)
	if err != nil {
		return err
	}
	st, err := eng.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "open system: %d nodes, %.2f sessions/s, holding %gs, horizon %gs (warmup %gs)\n",
		o.nodes, o.rate, o.hold, o.horizon, o.horizon/10)
	fmt.Fprintf(out, "sessions: %d arrivals, %d admitted (%.1f%%), %d blocked, %d departed\n",
		st.Arrivals, st.Admitted, 100*st.AdmissionRatio(), st.Blocked, st.Departed)
	fmt.Fprintf(out, "steady state: %.2f live avg (peak %d), QoS distance %.4f, cpu util %.1f%%\n",
		st.LiveAvg, st.PeakLive, st.DistanceAvg, 100*st.Util[resource.CPU])
	if o.churn > 0 {
		fmt.Fprintf(out, "churn: %d node leaves, survival %.1f%%\n", st.NodeLeaves, 100*st.SurvivalRatio())
	}
	if o.adapt != "off" {
		a := st.Adapt
		fmt.Fprintf(out, "adaptation (%s): %d repairs, %d degrades, %d upgrades, %d kills, drift %.4f\n",
			o.adapt, a.Repairs, a.Degrades, a.Upgrades, a.Kills, a.MeanDrift())
	}
	if o.admit != "block" {
		ad := st.Admit
		fmt.Fprintf(out, "admission (%s): %d queued, %d retries, %d queue admits, %d expired, %d yield admits (%d steps, %d reverted), utility %.1f, drift cost %.3f\n",
			o.admit, ad.Queued, ad.Retries, ad.QueueAdmits, ad.Expired,
			ad.YieldAdmits, ad.YieldSteps, ad.YieldReverted, ad.UtilitySum, ad.DriftCost)
	}
	if inj != nil {
		fs := inj.Stats
		fmt.Fprintf(out, "faults: %d loss drops, %d freeze drops, %d partition drops, %d delayed, %d duplicated\n",
			fs.Drops, fs.FreezeDrops, fs.PartitionDrops, fs.Delayed, fs.Dups)
		fmt.Fprintf(out, "hardening: %d retransmissions, %d duplicates suppressed, %d freezes bridged, %d orphaned reservations reclaimed\n",
			st.Counters.Get(obs.Retransmissions), st.Counters.Get(obs.Duplicates),
			st.Freezes(), st.Reclaimed())
	}
	if journal != nil {
		if err := writeTraceFile(o.traceOut, journal); err != nil {
			return err
		}
	}
	return nil
}

// writeTraceFile serializes the journal as JSONL at path.
func writeTraceFile(path string, journal *trace.Journal) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := journal.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run wraps the selected mode with the optional pprof profiles: the
// CPU profile spans the run; the heap profile is taken after it.
func run(o *options, out io.Writer) (err error) {
	if o.cpuProfile != "" {
		f, ferr := os.Create(o.cpuProfile)
		if ferr != nil {
			return ferr
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return perr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if o.memProfile != "" {
		defer func() {
			if err == nil {
				err = writeMemProfile(o.memProfile)
			}
		}()
	}
	if o.connect != "" {
		return runNetworked(o, out)
	}
	if o.open {
		return runOpen(o, out)
	}
	return runOneShot(o, out)
}

// parsePeers parses the -connect list into contiguous daemon addresses
// keyed by node id (1..len).
func parsePeers(spec string) (map[radio.NodeID]string, error) {
	peers := make(map[radio.NodeID]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("qosim: bad -connect entry %q (want id=host:port)", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("qosim: bad node id in -connect entry %q", part)
		}
		if _, dup := peers[radio.NodeID(n)]; dup {
			return nil, fmt.Errorf("qosim: duplicate node id %d in -connect", n)
		}
		peers[radio.NodeID(n)] = strings.TrimSpace(addr)
	}
	if len(peers) == 0 {
		return nil, errors.New("qosim: -connect lists no peers")
	}
	for i := 1; i <= len(peers); i++ {
		if _, ok := peers[radio.NodeID(i)]; !ok {
			return nil, fmt.Errorf("qosim: -connect ids must be contiguous from 1 (missing %d)", i)
		}
	}
	return peers, nil
}

// runNetworked joins a qosnoded fleet as organizer node 0, negotiates
// over TCP, and optionally verifies the allocation against the
// simulator's run of the identical scenario.
func runNetworked(o *options, out io.Writer) error {
	peers, err := parsePeers(o.connect)
	if err != nil {
		return err
	}
	total := len(peers) + 1
	n := qosnet.NewNode(qosnet.NodeConfig{
		Endpoint: qosnet.InteropEndpointConfig(0, total, "", o.timeScale),
		Provider: core.DefaultProviderConfig,
		Retry:    proto.DefaultRetryConfig,
	})
	if err := n.Start(); err != nil {
		return err
	}
	defer n.Close()
	for i := 1; i < total; i++ {
		id := radio.NodeID(i)
		if err := n.Endpoint.Dial(id, peers[id]); err != nil {
			return fmt.Errorf("qosim: joining fabric: %w", err)
		}
	}
	fmt.Fprintf(out, "fabric: %d remote daemon(s) + in-process node 0\n", len(peers))

	svc := qosnet.InteropService(o.tasks, o.scale)
	ch := make(chan *core.Result, 4)
	org, err := n.Submit(svc, core.DefaultOrganizerConfig, func(r *core.Result) {
		select {
		case ch <- r:
		default:
		}
	})
	if err != nil {
		return err
	}
	var res *core.Result
	select {
	case res = <-ch:
	case <-time.After(60 * time.Second):
		return errors.New("qosim: networked formation timed out")
	}
	fmt.Fprintf(out, "formation: %d/%d tasks in %d round(s), %d proposals\n",
		len(res.Assigned), len(svc.Tasks), res.Rounds, res.ProposalsReceived)
	ids := make([]string, 0, len(res.Assigned))
	for tid := range res.Assigned {
		ids = append(ids, tid)
	}
	sort.Strings(ids)
	for _, tid := range ids {
		a := res.Assigned[tid]
		where := "remote daemon"
		if a.Node == 0 {
			where = "in-process"
		}
		fmt.Fprintf(out, "  %-8s -> node %2d (%s) distance %.4f\n", tid, a.Node, where, a.Distance)
	}
	for _, t := range svc.Tasks {
		if _, ok := res.Assigned[t.ID]; !ok {
			fmt.Fprintf(out, "  %-8s UNSERVED\n", t.ID)
		}
	}
	org.Dissolve("qosim done")
	if err := n.Retire(svc.ID); err != nil {
		return err
	}
	time.Sleep(500 * time.Millisecond) // let the dissolve reach the daemons

	if o.compare {
		simRes, err := qosnet.InteropSim(o.seed, total, o.tasks, o.scale)
		if err != nil {
			return err
		}
		if qosnet.SameAssignment(simRes, res) {
			fmt.Fprintln(out, "interop: MATCH (simulator and TCP fabric agree)")
		} else {
			fmt.Fprintf(out, "interop: MISMATCH\n  sim: %v\n  tcp: %v\n", simRes.Assigned, res.Assigned)
			return errors.New("qosim: runtimes disagree")
		}
	}
	return nil
}

// writeMemProfile snapshots the heap (after a GC, so live objects
// dominate) to path.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runOneShot executes one formation scenario and prints the report.
func runOneShot(o *options, out io.Writer) error {
	ring := trace.NewRing(4096)
	var traceBuf *trace.Buffer
	var sink trace.Tracer
	if o.showTrace {
		sink = ring
	}
	if o.traceOut != "" {
		traceBuf = &trace.Buffer{}
		if sink != nil {
			sink = trace.Multi{ring, traceBuf}
		} else {
			sink = traceBuf
		}
	}
	scfg := workload.DefaultScenario(o.seed)
	scfg.Nodes = o.nodes
	scfg.Mobile = o.mobile
	scfg.Radio.LossProb = o.loss
	if sink != nil {
		scfg.Provider.Trace = sink
	}
	sc, err := workload.Build(scfg)
	if err != nil {
		return err
	}

	var svc *task.Service
	switch o.kind {
	case "stream":
		svc = workload.StreamService("svc", o.tasks, o.scale)
	case "surveillance":
		svc = workload.SurveillanceService("svc", o.scale)
	case "offload":
		svc = workload.OffloadService("svc", o.tasks, o.scale)
	default:
		return fmt.Errorf("unknown service kind %q", o.kind)
	}

	if o.verbose {
		fmt.Fprintln(out, "population:")
		for _, id := range sc.Cluster.Nodes() {
			n := sc.Cluster.Node(id)
			pos, _ := sc.Cluster.Medium.PosOf(id)
			fmt.Fprintf(out, "  node %2d %-12s at (%3.0f,%3.0f)  capacity %v\n",
				id, n.Profile, pos.X, pos.Y, n.Res.Capacity())
		}
		fmt.Fprintln(out)
	}

	ocfg := core.DefaultOrganizerConfig
	if sink != nil {
		ocfg.Trace = sink
	}
	var results []*core.Result
	org, err := sc.Cluster.Submit(0, 0, svc, ocfg, func(r *core.Result) {
		results = append(results, r)
	})
	if err != nil {
		return err
	}
	if o.fail > 0 {
		sc.Cluster.Eng.At(5, func() {
			if len(results) == 0 {
				return
			}
			killed := 0
			for _, m := range results[0].Members() {
				if m == 0 {
					continue
				}
				sc.Cluster.FailNode(m)
				fmt.Fprintf(out, "t=5.0s  node %d failed\n", m)
				killed++
				if killed == o.fail {
					return
				}
			}
		})
	}
	horizon := 10.0
	if o.fail > 0 {
		horizon = 40
	}
	sc.Cluster.Run(horizon)

	if len(results) == 0 {
		return fmt.Errorf("formation did not complete")
	}
	for i, r := range results {
		label := "formation"
		if i > 0 {
			label = fmt.Sprintf("reformation %d", i)
		}
		fmt.Fprintf(out, "%s: %d/%d tasks in %d round(s), %.0f ms, %d proposals\n",
			label, len(r.Assigned), len(svc.Tasks), r.Rounds, r.FormationTime*1000, r.ProposalsReceived)
	}
	final := org.Snapshot()
	fmt.Fprintln(out, "\nfinal allocation:")
	ids := make([]string, 0, len(final))
	for tid := range final {
		ids = append(ids, tid)
	}
	sort.Strings(ids)
	for _, tid := range ids {
		a := final[tid]
		n := sc.Cluster.Node(a.Node)
		eval, _ := qos.NewEvaluator(svc.Spec, &svc.Task(tid).Request)
		fmt.Fprintf(out, "  %-8s -> node %2d (%-12s) distance %.4f  utility %.3f\n",
			tid, a.Node, n.Profile, a.Distance, eval.Utility(a.Distance))
		if o.verbose {
			fmt.Fprintf(out, "           level %v\n", a.Level)
		}
	}
	for _, t := range svc.Tasks {
		if _, ok := final[t.ID]; !ok {
			fmt.Fprintf(out, "  %-8s UNSERVED\n", t.ID)
		}
	}
	st := sc.Cluster.Medium.Stats
	fmt.Fprintf(out, "\nradio: %d broadcasts, %d unicasts, %d deliveries, %d drops, %.1f KiB\n",
		st.Broadcasts, st.Unicasts, st.Deliveries, st.Drops, float64(st.Bytes)/1024)
	if org.Failures > 0 {
		fmt.Fprintf(out, "monitor: %d failure(s) detected, %d reconfiguration(s)\n", org.Failures, org.Reconfigurations)
	}
	if o.showTrace {
		fmt.Fprintf(out, "\nprotocol timeline (%d events):\n%s", ring.Total(), ring.String())
	}
	if traceBuf != nil {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := traceBuf.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qosim:", err)
		os.Exit(1)
	}
}
