package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 1 || o.repeats != 5 || o.quick || o.csv || o.run != "" || o.jsonPath != "" {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if o.parallel != runtime.NumCPU() {
		t.Errorf("default parallel = %d, want NumCPU = %d", o.parallel, runtime.NumCPU())
	}
}

func TestParseFlagsAll(t *testing.T) {
	o, err := parseFlags([]string{
		"-seed", "7", "-repeats", "3", "-quick", "-csv",
		"-run", "E1,E5", "-parallel", "8", "-json", "out.json",
		"-trace-out", "trace.jsonl",
		"-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := options{seed: 7, repeats: 3, quick: true, csv: true,
		run: "E1,E5", parallel: 8, jsonPath: "out.json",
		traceOut:   "trace.jsonl",
		cpuProfile: "cpu.pprof", memProfile: "mem.pprof"}
	if *o != want {
		t.Errorf("got %+v, want %+v", *o, want)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-parallel", "0"},
		{"-repeats", "0"},
		{"-nonsense"},
		{"stray-positional"},
	} {
		var errw bytes.Buffer
		if _, err := parseFlags(args, &errw); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		} else if errw.Len() == 0 {
			t.Errorf("parseFlags(%v) reported nothing to errw", args)
		}
	}
	// -h is help, not an invalid invocation.
	if _, err := parseFlags([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("")
	if err != nil || len(all) != 30 {
		t.Fatalf("default selection: %d experiments, err %v", len(all), err)
	}
	two, err := selectExperiments("E5, E1")
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 || two[0].ID != "E5" || two[1].ID != "E1" {
		t.Errorf("filtered selection wrong: %+v", two)
	}
	if _, err := selectExperiments("E99"); err == nil {
		t.Error("unknown ID accepted")
	}
}

// TestRunSuiteParallelIdenticalOutput is the CLI-level determinism
// check behind the -parallel flag: the printed tables are byte-identical
// at widths 1 and 8, and the JSON document carries every requested
// experiment with a wall time.
func TestRunSuiteParallelIdenticalOutput(t *testing.T) {
	outputs := map[int]string{}
	var res *metrics.Results
	exps, err := selectExperiments("E1,E5")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 8} {
		var out, errw bytes.Buffer
		o := &options{seed: 1, repeats: 2, quick: true, run: "E1,E5", parallel: par}
		r, failed := runSuite(o, exps, nil, &out, &errw)
		if failed != 0 {
			t.Fatalf("parallel=%d: %d failures: %s", par, failed, errw.String())
		}
		// Strip the wall-clock elapsed lines; everything else must match.
		var kept []string
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.HasPrefix(line, "# elapsed:") {
				kept = append(kept, line)
			}
		}
		outputs[par] = strings.Join(kept, "\n")
		res = r
	}
	if outputs[1] != outputs[8] {
		t.Errorf("output differs between -parallel 1 and -parallel 8:\n--- 1 ---\n%s\n--- 8 ---\n%s",
			outputs[1], outputs[8])
	}
	if len(res.Experiments) != 2 || res.Experiments[0].ID != "E1" || res.Experiments[1].ID != "E5" {
		t.Fatalf("results document experiments wrong: %+v", res.Experiments)
	}
	for _, e := range res.Experiments {
		if e.WallSeconds <= 0 {
			t.Errorf("%s: wall time %v not recorded", e.ID, e.WallSeconds)
		}
		if e.Table == nil || len(e.Table.Rows) == 0 {
			t.Errorf("%s: table missing from document", e.ID)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("results document does not marshal: %v", err)
	}
}

// TestSuiteTraceArtifacts runs a traced quick suite twice — parallel
// 1 and 8 — and checks the CLI-level flight-recorder contract: the
// journal serializes to identical JSONL at both widths, and
// writeArtifacts lands a trace file equal to that serialization.
func TestSuiteTraceArtifacts(t *testing.T) {
	dir := t.TempDir()
	exps, err := selectExperiments("E17,E26")
	if err != nil {
		t.Fatal(err)
	}
	render := func(par int) string {
		journal := trace.NewJournal()
		o := &options{seed: 1, repeats: 2, quick: true, parallel: par,
			traceOut: filepath.Join(dir, "trace.jsonl")}
		res, failed := runSuite(o, exps, journal, io.Discard, io.Discard)
		if failed != 0 {
			t.Fatalf("parallel=%d: %d failures", par, failed)
		}
		var buf bytes.Buffer
		if err := journal.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if err := writeArtifacts(o, res, journal); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	trace1 := render(1)
	trace8 := render(8)
	if trace1 == "" {
		t.Fatal("traced suite recorded nothing")
	}
	if trace1 != trace8 {
		t.Error("suite trace differs between -parallel 1 and 8")
	}
	for _, scope := range []string{`"scope":"E17/0000"`, `"scope":"E26/0000"`} {
		if !strings.Contains(trace1, scope) {
			t.Errorf("trace missing %s", scope)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != trace8 {
		t.Error("trace file does not match the journal serialization")
	}
}
