// Command qosbench regenerates every experiment table of the
// reproduction (this repository's "evaluation section"; the paper itself
// publishes no tables or figures — see DESIGN.md and EXPERIMENTS.md).
//
// Usage:
//
//	qosbench [-seed N] [-repeats N] [-quick] [-csv] [-run E1,E7]
//	         [-parallel N] [-json FILE]
//
// -parallel fans each experiment's replications and sweep points out
// across a bounded worker pool; tables are bit-identical at every width
// because every replication owns a rand.Rand seeded with seed+r and
// aggregation is ordered. The city experiments (E20-E21) reuse the same
// width for the fabric's shard pool one level down — shard s derives
// every draw from a fixed hash of (seed, s), so their city-wide tables
// carry the identical guarantee (scripts/determinism.sh enforces it in
// CI). -json additionally writes a machine-readable results document
// (run metadata, config, tables and per-experiment wall time); FILE may
// be "-" for stdout.
//
// Observability flags:
//
//	-trace-out FILE   collect every replication's flight-recorder
//	                  events (experiments that support tracing) into a
//	                  journal and write it as JSONL; the bytes are
//	                  identical at any -parallel width
//	                  (scripts/determinism.sh diffs them)
//	-cpuprofile FILE  write a pprof CPU profile of the suite run
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
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/xp"
)

// options is the parsed command line.
type options struct {
	seed     int64
	repeats  int
	quick    bool
	csv      bool
	run      string
	parallel int
	jsonPath string

	traceOut   string
	cpuProfile string
	memProfile string
}

// parseFlags parses args (without the program name) into options.
// Parse and validation errors are reported to errw exactly once; the
// returned error is for flow control only.
func parseFlags(args []string, errw io.Writer) (*options, error) {
	fs := flag.NewFlagSet("qosbench", flag.ContinueOnError)
	fs.SetOutput(errw)
	o := &options{}
	fs.Int64Var(&o.seed, "seed", 1, "base random seed")
	fs.IntVar(&o.repeats, "repeats", 5, "seeds averaged per sweep point")
	fs.BoolVar(&o.quick, "quick", false, "shrink sweeps for a fast pass")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned text")
	fs.StringVar(&o.run, "run", "", "comma-separated experiment IDs (default: all)")
	fs.IntVar(&o.parallel, "parallel", runtime.NumCPU(), "worker-pool width for replications (1 = sequential; output is identical at any width)")
	fs.StringVar(&o.jsonPath, "json", "", "write a JSON results document to FILE (\"-\" = stdout, suppressing the text tables)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the suite's flight-recorder trace as JSONL to FILE")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to FILE")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to FILE (taken after the run)")
	if err := fs.Parse(args); err != nil {
		return nil, err // fs has already printed the error and usage
	}
	fail := func(format string, a ...any) (*options, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintln(errw, err)
		return nil, err
	}
	if o.parallel < 1 {
		return fail("qosbench: -parallel must be >= 1, got %d", o.parallel)
	}
	if o.repeats < 1 {
		return fail("qosbench: -repeats must be >= 1, got %d", o.repeats)
	}
	if rest := fs.Args(); len(rest) > 0 {
		return fail("qosbench: unexpected arguments %q", rest)
	}
	return o, nil
}

// selectExperiments resolves the -run filter against the suite.
func selectExperiments(run string) ([]xp.Experiment, error) {
	if run == "" {
		return xp.All(), nil
	}
	var filtered []xp.Experiment
	for _, id := range strings.Split(run, ",") {
		e, err := xp.ByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		filtered = append(filtered, e)
	}
	return filtered, nil
}

// runSuite executes exps, prints tables to out, and returns the results
// document plus the number of failed experiments. A non-nil journal
// switches the flight recorder on: every experiment records under its
// own ID as the scope group.
func runSuite(o *options, exps []xp.Experiment, journal *trace.Journal, out, errw io.Writer) (*metrics.Results, int) {
	cfg := xp.Config{Seed: o.seed, Repeats: o.repeats, Quick: o.quick, Parallel: o.parallel}
	cfg.Trace = journal
	res := metrics.NewResults("qosbench", map[string]any{
		"seed": o.seed, "repeats": o.repeats, "quick": o.quick,
		"parallel": o.parallel, "run": o.run,
	})
	suiteStart := time.Now()
	failed := 0
	for _, e := range exps {
		start := time.Now()
		cfg.TraceGroup = e.ID
		table, err := e.Run(cfg)
		elapsed := time.Since(start)
		res.Add(e.ID, e.Title, e.Claim, elapsed, table, err)
		if err != nil {
			fmt.Fprintf(errw, "%s %s: %v\n", e.ID, e.Title, err)
			failed++
			continue
		}
		fmt.Fprintf(out, "# %s — %s\n# claim: %s\n", e.ID, e.Title, e.Claim)
		if o.csv {
			fmt.Fprint(out, table.CSV())
		} else {
			fmt.Fprint(out, table.String())
		}
		fmt.Fprintf(out, "# elapsed: %v\n\n", elapsed.Round(time.Millisecond))
	}
	res.WallSeconds = time.Since(suiteStart).Seconds()
	return res, failed
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		os.Exit(2)
	}
	exps, err := selectExperiments(o.run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// With -json - the document owns stdout; route the text tables away
	// so the output stays parseable.
	var out io.Writer = os.Stdout
	if o.jsonPath == "-" {
		out = io.Discard
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	var journal *trace.Journal
	if o.traceOut != "" {
		journal = trace.NewJournal()
	}
	res, failed := runSuite(o, exps, journal, out, os.Stderr)
	if err := writeArtifacts(o, res, journal); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// writeArtifacts emits the post-run documents: the JSON results file,
// the trace JSONL, and the heap profile.
func writeArtifacts(o *options, res *metrics.Results, journal *trace.Journal) error {
	if o.jsonPath != "" {
		if err := res.WriteFile(o.jsonPath); err != nil {
			return err
		}
	}
	if journal != nil {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := journal.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
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
	return nil
}
