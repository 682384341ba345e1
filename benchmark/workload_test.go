package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

// Same seed, same inputs and same simulated outcome; another seed,
// other arrivals. Seed 2 is held out: nothing was sized or pinned on it.
func TestSeedDiscipline(t *testing.T) {
	for _, full := range simSpecs {
		spec := full.smoke()
		a, err := runRep(spec, 1, 0, simHooks{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := runRep(spec, 1, 0, simHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if a.ops != b.ops || a.digest != b.digest {
			t.Errorf("%s: seed 1 gave %d ops digest %x, then %d ops digest %x", spec.name, a.ops, a.digest, b.ops, b.digest)
		}
		held, err := runRep(spec, 2, 0, simHooks{})
		if err != nil {
			t.Fatalf("%s: held-out seed 2: %v", spec.name, err)
		}
		if held.digest == a.digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %x", spec.name, a.digest)
		}
		next, err := runRep(spec, 1, 1, simHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if next.digest == a.digest {
			t.Errorf("%s: replications 0 and 1 gave the same digest %x", spec.name, a.digest)
		}
	}
}

// The arrival count is a pure function of the seed's arrival stream.
func TestDifferentSeedDifferentArrivals(t *testing.T) {
	spec := simSpecs[0].smoke()
	counts := map[int]bool{}
	for seed := int64(1); seed <= 4; seed++ {
		out, err := runRep(spec, seed, 0, simHooks{})
		if err != nil {
			t.Fatal(err)
		}
		counts[out.ops] = true
	}
	if len(counts) < 2 {
		t.Errorf("four seeds all produced the same arrival count: %v", counts)
	}
}

// Every workload runs green at smoke size and reports exactly the
// end-to-end metrics, in a result line that survives a JSON round trip.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		res, rep, err := runWorkload(name, 2, smokeSizes(), false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", name, res.Correct, res.Attempted, res.Failed, rep.Notes)
		}
		checkShape(t, name, res, endToEnd)
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", name, d.Name, v)
			}
		}
	}
}

// The traced run reports exactly the per-layer metrics, writes its
// spans, and builds a cost sheet that ends in the unexplained remainder.
func TestSmokeTracedRun(t *testing.T) {
	for _, name := range []string{"sim-chaos", "tcp-fleet"} {
		dir := t.TempDir()
		res, rep, err := runWorkload(name, 2, smokeSizes(), true, dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: traced run incorrect: %v", name, rep.Notes)
		}
		checkShape(t, name, res, perLayer)
		if len(rep.Spans) == 0 || rep.SpanFile == "" {
			t.Errorf("%s: no spans recorded (file %q)", name, rep.SpanFile)
		}
		if n := len(rep.CostSheet); n < 2 || rep.CostSheet[n-1].Layer != "unexplained remainder" {
			t.Errorf("%s: cost sheet %+v", name, rep.CostSheet)
		}
	}
}

func checkShape(t *testing.T, name string, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s reported as %+v (present %v), want unit %s", name, d.Name, m, ok, d.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatalf("%s: result line does not parse: %v", name, err)
	}
	if !reflect.DeepEqual(&back, res) {
		t.Errorf("%s: result changed in a JSON round trip", name)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("%s: result line has keys %v, want exactly correct, attempted, failed, metrics", name, keys)
	}
}

// Spans nest: a parent's self time excludes what its children cover.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin(tr.name("root"), 0, -1)
	child := tr.begin(tr.name("child"), 0, root)
	tr.end(child)
	tr.end(root)
	tr.spans[root].start, tr.spans[root].end = 0, 1000
	tr.spans[child].start, tr.spans[child].end = 100, 400
	got := map[string]spanTotal{}
	for _, s := range tr.totals() {
		got[s.Name] = s
	}
	if got["root"].TotalUS != 1 || got["root"].SelfUS != 0.7 || got["child"].SelfUS != 0.3 {
		t.Errorf("totals = %+v", got)
	}
	var none *tracer
	if i := none.begin(none.name("x"), 0, -1); i != -1 {
		t.Errorf("nil tracer began span %d", i)
	}
	none.end(-1)
}
