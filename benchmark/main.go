// Command benchmark is the repository's one benchmark for the whole
// session path. Each invocation runs one workload from a seed, checks
// its outputs, and prints every metric by name with its unit; the last
// line of standard output is the result object the driver reads.
// README.md in this directory describes the workloads and the metrics.
//
//	benchmark -workload sim-negotiate -seed 1 -seconds 20 -trace 0
//	benchmark -workload tcp-fleet -seed 1 -seconds 20 -trace 1
//	benchmark -aa -seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// workloadNames lists the four workloads in the order -aa runs them.
var workloadNames = []string{"sim-negotiate", "sim-hold", "sim-chaos", "tcp-fleet"}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance says what produced a report and where.
type provenance struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Smoke      bool    `json:"smoke"`
	Sizes      any     `json:"sizes"`
	Network    string  `json:"network"`
}

func newProvenance(workload string, seed int64, sz sizes, traced bool) provenance {
	p := provenance{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workload: workload, Seed: seed,
		Seconds: sz.seconds, Traced: traced, Smoke: sz.smoke,
		Network: "tcp-fleet traffic crosses the host loopback interface, not a link",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				p.Dirty = s.Value == "true"
			}
		}
	}
	return p
}

// report is everything a run prints before its result line: where the
// numbers came from, the spread behind each median, and the notes a
// reader needs to trust or distrust them.
type report struct {
	Provenance provenance        `json:"provenance"`
	Digest     string            `json:"digest,omitempty"`
	Spreads    map[string]spread `json:"spreads,omitempty"`
	Samples    map[string]int    `json:"samples,omitempty"`
	Spans      []spanTotal       `json:"spans,omitempty"`
	SpanFile   string            `json:"span_file,omitempty"`
	CostSheet  []costLine        `json:"cost_sheet,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: sim-negotiate | sim-hold | sim-chaos | tcp-fleet")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 20, "length of the timed region")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "fixed small work (1 replication / 50 formations) instead of a timed region")
		aa       = flag.Bool("aa", false, "run every workload twice on this build, alternating order, and compare against the bounds")
		outDir   = flag.String("out", ".bench_build", "directory the traced run writes its spans under")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *aa {
		os.Exit(runAA(*seed, *seconds))
	}
	sz := timedSizes(*seconds)
	if *smoke {
		sz = smokeSizes()
	}
	res, rep, err := runWorkload(*workload, *seed, sz, *traceOn == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if rep.Provenance.Dirty {
		fmt.Fprintln(os.Stderr, "benchmark: WARNING: built from a DIRTY tree — these numbers belong to no commit")
	}
	body, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(body))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload once and shapes its outcome.
func runWorkload(name string, seed int64, sz sizes, traced bool, outDir string) (*result, *report, error) {
	rep := &report{Provenance: newProvenance(name, seed, sz, traced), Spreads: map[string]spread{}, Samples: map[string]int{}}
	var m *measured
	var err error
	switch {
	case name == "tcp-fleet":
		rep.Provenance.Sizes = map[string]any{"nodes": fleetNodes, "in_flight": fleetInFlight, "time_scale": fleetTimeScale,
			"template": fleetTemplate, "warmup_formations": sz.fleetWarmup}
		m, err = measureFleet(seed, sz, traced)
	default:
		spec, ok := findSim(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
		}
		if sz.smoke {
			spec = spec.smoke()
		}
		rep.Provenance.Sizes = map[string]any{"nodes": spec.nodes, "rate_per_s": spec.rate, "hold_mean_s": spec.hold,
			"template": spec.tmpl, "horizon_s": spec.horizon, "warmup_s": spec.warmup, "chaos": spec.chaos}
		m, err = measureSim(spec, seed, sz, traced)
	}
	if err != nil {
		return nil, nil, err
	}
	rep.Digest = m.digest

	var vals values
	defs := endToEnd
	if traced {
		defs = perLayer
		if vals, err = m.perLayerValues(seed, sz, rep); err != nil {
			return nil, nil, err
		}
		if rep.SpanFile, err = m.tr.write(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed)); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
		rep.Spans = m.tr.totals()
	} else {
		if vals, err = endToEndValues(m.seg, m.setups); err != nil {
			return nil, nil, err
		}
		rep.Spreads["setup_s"] = spreadOf(m.setups)
		if len(m.seg.repOpsPerS) > 0 {
			rep.Spreads["ops_per_s.per_replication"] = spreadOf(m.seg.repOpsPerS)
		}
		n := m.seg.opMS.N()
		rep.Samples["op_p50_ms"], rep.Samples["op_p99_ms"] = n, n
		if _, ok := p99(&m.seg.opMS); !ok {
			rep.Notes = append(rep.Notes, fmt.Sprintf("op_p99_ms: %d samples cannot support a 99th percentile; the maximum is reported in its place", n))
		}
	}
	shaped, missing := vals.shaped(defs)
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("metrics never measured: %v", missing)
	}
	seg := m.seg
	res := &result{Correct: seg.failed == 0, Attempted: seg.ops, Failed: seg.failed, Metrics: shaped}
	if seg.firstErr != nil {
		rep.Notes = append(rep.Notes, "first failure: "+seg.firstErr.Error())
	}
	return res, rep, nil
}

func findSim(name string) (simSpec, bool) {
	for _, s := range simSpecs {
		if s.name == name {
			return s, true
		}
	}
	return simSpec{}, false
}

// measured is one invocation's raw outcome: the set-up times, the
// segment the reported metrics come from and, on a traced run, the
// untraced reference segment and the spans.
type measured struct {
	setups []float64
	seg    *segment // untraced run: the timed region; traced run: the traced segment
	ref    *segment // traced run only: the same workload, tracing off
	tr     *tracer
	digest string
}

// traceSplit divides a traced run's time between the workload (run
// both traced and untraced) and the probes with the saturation phase.
const (
	traceWorkloadShare = 0.65
	traceProbeShare    = 0.25
	traceSatShare      = 0.10
)

func measureSim(spec simSpec, seed int64, sz sizes, traced bool) (*measured, error) {
	m := &measured{}
	// Set-up: build the neighbourhood and run replication 0 untimed, which
	// compiles the template's problems and grows the heap to working size.
	var warm *repOut
	setups := sz.setups
	if traced {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		out, err := runRep(spec, seed, 0, simHooks{})
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		if warm != nil && (warm.digest != out.digest || warm.ops != out.ops) {
			return nil, fmt.Errorf("%s seed %d: replication 0 is not reproducible: digest %016x then %016x", spec.name, seed, warm.digest, out.digest)
		}
		warm = out
	}
	m.digest = fmt.Sprintf("%016x", warm.digest)
	check := func(seg *segment) error {
		if seg.firstDigest != warm.digest || seg.firstOps != warm.ops {
			return fmt.Errorf("%s seed %d: timed replication 0 (digest %016x, %d ops) differs from its warm-up run (%016x, %d ops)",
				spec.name, seed, seg.firstDigest, seg.firstOps, warm.digest, warm.ops)
		}
		return nil
	}
	if want, ok := pinnedDigests[spec.name]; ok && seed == 1 && !sz.smoke && want != warm.digest {
		return nil, fmt.Errorf("%s seed 1: digest %016x, pinned %016x: the simulation's behaviour changed", spec.name, warm.digest, want)
	}

	var err error
	if !traced {
		if m.seg, _, err = runSimRegion(spec, seed, sz, sz.seconds, nil); err != nil {
			return nil, err
		}
		return m, check(m.seg)
	}
	m.tr = newTracer()
	if m.ref, m.seg, err = runSimRegion(spec, seed, sz, sz.seconds*traceWorkloadShare, m.tr); err != nil {
		return nil, err
	}
	if err := check(m.ref); err != nil {
		return nil, err
	}
	return m, check(m.seg)
}

func measureFleet(seed int64, sz sizes, traced bool) (*measured, error) {
	m := &measured{}
	base := fleetSeqBase(seed)
	setups := sz.setups
	if traced {
		setups = 1
	}
	// Set-up: boot, dial and handshake the fleet, then warm it up. Every
	// repetition builds a fresh fleet; the last one is measured.
	var f *fleet
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = fleetSetup(sz.fleetWarmup, base); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}
	defer f.close()
	next := base + sz.fleetWarmup

	var err error
	if !traced {
		m.seg, _, _, err = runFleetRegion(f, next, sz, sz.seconds, nil)
		return m, err
	}
	m.tr = newTracer()
	if m.ref, m.seg, _, err = runFleetRegion(f, next, sz, sz.seconds*traceWorkloadShare, m.tr); err != nil {
		return nil, err
	}
	// Provider counters are plain fields owned by each node's loop, so
	// they are read only once the fleet has stopped; they cover its whole
	// life, warm-up included, and are scaled to the traced segment.
	formed := f.formed
	f.close()
	scale := float64(m.seg.ops) / float64(formed)
	var cfps, proposals, declines, accepts int
	for _, n := range f.nodes() {
		cfps += n.Provider.CFPs
		proposals += n.Provider.Proposals
		declines += n.Provider.Declines
		accepts += n.Provider.Accepts
	}
	m.seg.cfps = int(float64(cfps)*scale + 0.5)
	m.seg.proposals = int(float64(proposals)*scale + 0.5)
	m.seg.declines = int(float64(declines)*scale + 0.5)
	m.seg.accepts = int(float64(accepts)*scale + 0.5)
	return m, nil
}
