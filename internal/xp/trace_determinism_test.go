package xp

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/trace"
)

// tracedChaosJSONL runs the quick E26 chaos sweep with the flight
// recorder on and returns the journal serialized as JSONL.
func tracedChaosJSONL(t *testing.T, parallel int) string {
	t.Helper()
	j := trace.NewJournal()
	cfg := Config{Seed: 1, Repeats: 2, Quick: true, Parallel: parallel,
		Trace: j, TraceGroup: "E26"}
	if _, err := E26BurstLoss(cfg); err != nil {
		t.Fatalf("E26: %v", err)
	}
	var buf bytes.Buffer
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.String()
}

// e26TraceReference holds the SHA-256 and event count of the trace the
// engine's former reference session loop (an unpooled copy of the loop,
// since deleted) recorded for the quick E26 sweep.
const e26TraceReference = "testdata/e26-trace.txt"

var update = flag.Bool("update", false, "rewrite "+e26TraceReference+" from the current loop (deliberate re-pins only)")

// TestChaosTraceDeterminism pins the flight recorder's reproducibility
// contract: a same-seed chaos run emits byte-identical JSONL traces no
// matter the worker-pool width, equal to the reference session loop's
// recorded trace. This is the trace-level twin of the table determinism
// gate in scripts/determinism.sh.
func TestChaosTraceDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the chaos sweep three times")
	}
	base := tracedChaosJSONL(t, 1)
	if base == "" {
		t.Fatal("traced chaos run produced an empty journal")
	}
	for _, kind := range []string{"arrival", "reconcile.begin", "reconcile.end", "freeze"} {
		if !strings.Contains(base, `"kind":"`+kind+`"`) {
			// freeze only appears when the plan freezes nodes; E26 plans
			// are loss-only, so tolerate its absence but require the rest.
			if kind == "freeze" {
				continue
			}
			t.Errorf("trace missing %q events", kind)
		}
	}
	if again := tracedChaosJSONL(t, 1); again != base {
		t.Error("two same-seed runs disagree byte-for-byte")
	}
	if par := tracedChaosJSONL(t, 8); par != base {
		t.Error("parallel 8 trace differs from sequential trace")
	}
	got := fmt.Sprintf("sha256=%x events=%d\n", sha256.Sum256([]byte(base)), strings.Count(base, "\n"))
	if *update {
		if err := os.WriteFile(e26TraceReference, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(e26TraceReference)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("E26 trace diverges from the recorded reference answer\n got:  %s want: %s", got, want)
	}
}

// TestTracingDoesNotPerturbTables pins that the recorder is
// emission-only: running an experiment with the flight recorder on must
// render byte-identical tables to running it with tracing off, because
// no emission site draws from a replication's rng or changes control
// flow. This is what lets the golden pins stay valid with tracing on.
func TestTracingDoesNotPerturbTables(t *testing.T) {
	off := Config{Seed: 1, Repeats: 2, Quick: true}
	on := off
	on.Trace = trace.NewJournal()
	on.TraceGroup = "E26"
	toff, err := E26BurstLoss(off)
	if err != nil {
		t.Fatal(err)
	}
	ton, err := E26BurstLoss(on)
	if err != nil {
		t.Fatal(err)
	}
	if toff.String() != ton.String() {
		t.Errorf("tracing perturbed the table:\noff:\n%s\non:\n%s", toff, ton)
	}
	if on.Trace.Total() == 0 {
		t.Error("traced run recorded nothing")
	}
}
