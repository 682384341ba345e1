package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	qosnet "repro/internal/net"
	"repro/internal/proto"
	"repro/internal/radio"
)

func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 1 || o.nodes != 12 || o.tasks != 4 || o.scale != 1.5 || o.kind != "stream" {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if _, err := parseFlags([]string{"-nonsense"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	// -h is help, not an invalid invocation (main exits 0 on it).
	if _, err := parseFlags([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h returned %v, want flag.ErrHelp", err)
	}
}

// TestRunStreamScenario is the end-to-end smoke test: a default-ish
// scenario forms a coalition and the report names every task.
func TestRunStreamScenario(t *testing.T) {
	var out bytes.Buffer
	o, err := parseFlags([]string{"-seed", "1", "-nodes", "10", "-tasks", "3", "-verbose"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"population:", "formation:", "final allocation:", "t0", "t2", "radio:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunServiceKinds exercises the other service templates and the
// failure-injection path.
func TestRunServiceKinds(t *testing.T) {
	for _, args := range [][]string{
		{"-service", "surveillance", "-scale", "1"},
		{"-service", "offload", "-tasks", "2", "-scale", "1"},
		{"-fail", "1", "-trace"},
	} {
		var out bytes.Buffer
		o, err := parseFlags(args, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(o, &out); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
		if !strings.Contains(out.String(), "final allocation:") {
			t.Errorf("run(%v) produced no allocation report", args)
		}
	}
}

func TestRunRejectsUnknownService(t *testing.T) {
	o, err := parseFlags([]string{"-service", "nonsense"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err == nil {
		t.Error("unknown service kind accepted")
	}
}

// TestRunDeterministic: same seed, same report (the CLI is a thin shell
// over the deterministic simulator).
func TestRunDeterministic(t *testing.T) {
	render := func() string {
		var out bytes.Buffer
		o, err := parseFlags([]string{"-seed", "7", "-nodes", "8"}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(o, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("same seed rendered different reports:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestRunOpenMode exercises the open-system lifecycle path with every
// adaptation policy, plus the -adapt validation.
func TestRunOpenMode(t *testing.T) {
	for _, policy := range []string{"off", "kill", "migrate", "degrade"} {
		var out bytes.Buffer
		o, err := parseFlags([]string{
			"-open", "-horizon", "300", "-rate", "0.1", "-tasks", "2", "-scale", "1",
			"-churn", "240", "-adapt", policy,
		}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(o, &out); err != nil {
			t.Fatalf("-adapt %s: %v\noutput:\n%s", policy, err, out.String())
		}
		got := out.String()
		for _, want := range []string{"open system:", "sessions:", "steady state:", "churn:"} {
			if !strings.Contains(got, want) {
				t.Errorf("-adapt %s output missing %q:\n%s", policy, want, got)
			}
		}
		if policy != "off" && !strings.Contains(got, "adaptation ("+policy+")") {
			t.Errorf("-adapt %s output missing its adaptation report:\n%s", policy, got)
		}
		if policy == "off" && strings.Contains(got, "adaptation (") {
			t.Errorf("-adapt off printed an adaptation report:\n%s", got)
		}
	}
	if _, err := parseFlags([]string{"-open", "-adapt", "bogus"}, io.Discard); err == nil {
		t.Error("bogus -adapt policy accepted")
	}
}

// TestRunFaultsMode exercises the chaos quick-start: the representative
// fault plan runs to completion, reports the adversary's counters and
// the hardening's recovery work, and stays deterministic per seed.
func TestRunFaultsMode(t *testing.T) {
	render := func() string {
		var out bytes.Buffer
		o, err := parseFlags([]string{
			"-open", "-faults", "-horizon", "400", "-rate", "0.1", "-tasks", "2", "-scale", "1",
		}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if err := run(o, &out); err != nil {
			t.Fatalf("-faults: %v\noutput:\n%s", err, out.String())
		}
		return out.String()
	}
	got := render()
	for _, want := range []string{"faults:", "hardening:", "retransmissions", "reclaimed"} {
		if !strings.Contains(got, want) {
			t.Errorf("-faults output missing %q:\n%s", want, got)
		}
	}
	if again := render(); again != got {
		t.Errorf("-faults is not deterministic per seed:\n--- a ---\n%s--- b ---\n%s", got, again)
	}
}

// TestRunObservabilityArtifacts drives the open+faults mode with every
// observability flag on and checks each artifact landed: a non-empty
// JSONL trace whose lines are JSON objects, and pprof CPU and heap
// profiles.
func TestRunObservabilityArtifacts(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.jsonl")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	o, err := parseFlags([]string{
		"-open", "-faults", "-horizon", "300", "-rate", "0.1", "-tasks", "2", "-scale", "1",
		"-trace-out", traceOut, "-cpuprofile", cpu, "-memprofile", mem,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}

	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("trace JSONL is empty")
	}
	for i, l := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(l), &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v: %q", i+1, err, l)
		}
		if ev["scope"] != "qosim/0000" {
			t.Fatalf("trace line %d has scope %v", i+1, ev["scope"])
		}
	}

	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", p, err)
		}
	}
}

// TestRunOneShotTraceOut: the one-shot mode serializes the protocol
// timeline as JSONL too.
func TestRunOneShotTraceOut(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "oneshot.jsonl")
	o, err := parseFlags([]string{"-nodes", "8", "-tasks", "2", "-trace-out", traceOut}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"kind":"cfp"`) {
		t.Errorf("one-shot trace misses the protocol handshake:\n%s", raw)
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("1=127.0.0.1:7001, 2=127.0.0.1:7002")
	if err != nil || len(peers) != 2 || peers[1] != "127.0.0.1:7001" {
		t.Fatalf("peers = %v, err %v", peers, err)
	}
	for _, bad := range []string{"", "nonsense", "0=127.0.0.1:1", "1=a,1=b", "2=127.0.0.1:1"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

// TestRunNetworked drives the TCP client mode against two in-process
// daemon nodes and requires the simulator comparison to report MATCH.
func TestRunNetworked(t *testing.T) {
	const total = 3
	var daemons []*qosnet.Node
	defer func() {
		for _, d := range daemons {
			d.Close()
		}
	}()
	spec := make([]string, 0, total-1)
	for i := 1; i < total; i++ {
		d := qosnet.NewNode(qosnet.NodeConfig{
			Endpoint: qosnet.InteropEndpointConfig(radio.NodeID(i), total, "127.0.0.1:0", 0.02),
			Provider: core.DefaultProviderConfig,
			Retry:    proto.DefaultRetryConfig,
		})
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
		spec = append(spec, fmt.Sprintf("%d=%s", i, d.Endpoint.Addr()))
	}
	o, err := parseFlags([]string{"-connect", strings.Join(spec, ","), "-tasks", "2", "-scale", "1.0"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"fabric: 2 remote daemon(s)", "formation: 2/2", "interop: MATCH"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// The dissolve must have drained the daemons' ledgers.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		clean := true
		for _, d := range daemons {
			if d.Res.Available() != d.Res.Capacity() {
				clean = false
			}
		}
		if clean {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Error("daemon ledgers not drained after dissolve")
}
