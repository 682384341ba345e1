package trace

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder claims enabled")
	}
	r.Emit(Event{Kind: "x"})
	r.Point(1, 0, "engine", "arrival", "")
	sp := r.Begin(1, 0, "engine", "round", "")
	sp.End(2, "done")
	if NewRecorder(nil) != nil || NewRecorder(Nop{}) != nil {
		t.Fatal("nil/Nop sink should yield nil recorder")
	}
}

func TestRecorderSpansPairUp(t *testing.T) {
	var b Buffer
	r := NewRecorder(&b)
	if !r.Enabled() {
		t.Fatal("recorder with live sink not enabled")
	}
	s1 := r.Begin(1.0, 0, "organizer", "round", "cfp out")
	r.Point(1.5, 2, "provider", "proposal", "2 tasks")
	s2 := r.Begin(1.6, 0, "engine", "adapt", "")
	s2.End(1.9, "0 moved")
	s1.End(2.0, "formed")
	ev := b.Events()
	if len(ev) != 5 {
		t.Fatalf("events = %d", len(ev))
	}
	if ev[0].Kind != "round.begin" || ev[4].Kind != "round.end" {
		t.Fatalf("outer span kinds: %s / %s", ev[0].Kind, ev[4].Kind)
	}
	if ev[0].Span == "" || ev[0].Span != ev[4].Span {
		t.Fatalf("outer span ids do not pair: %q vs %q", ev[0].Span, ev[4].Span)
	}
	if ev[2].Span == ev[0].Span {
		t.Fatal("nested span reused the outer id")
	}
	if ev[1].Span != "" {
		t.Fatalf("point event has span %q", ev[1].Span)
	}
	if !strings.Contains(ev[0].String(), "["+ev[0].Span+"]") {
		t.Fatalf("String() does not show span: %s", ev[0].String())
	}
}

func TestJournalSortsScopesAndIsOrderIndependent(t *testing.T) {
	// Emit into scopes in two different concurrent interleavings; the
	// serialized JSONL must be identical.
	runs := make([]string, 2)
	for run := range runs {
		j := NewJournal()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			idx := i
			if run == 1 {
				idx = 7 - i // reversed start order
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				b := j.Scope(ScopeName("E17", idx))
				for k := 0; k < 3; k++ {
					b.Emit(Event{T: float64(k), Node: idx, Role: "engine", Kind: "arrival"})
				}
			}()
		}
		wg.Wait()
		var out bytes.Buffer
		if err := j.WriteJSONL(&out); err != nil {
			t.Fatal(err)
		}
		runs[run] = out.String()
		if j.Total() != 24 {
			t.Fatalf("total = %d", j.Total())
		}
	}
	if runs[0] != runs[1] {
		t.Fatalf("journal output depends on emission interleaving:\n%s\nvs\n%s", runs[0], runs[1])
	}
	j := NewJournal()
	j.Scope("b").Emit(Event{Kind: "x"})
	j.Scope("a").Emit(Event{Kind: "y"})
	var out bytes.Buffer
	if err := j.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], `"scope":"a"`) {
		t.Fatalf("scopes not sorted:\n%s", out.String())
	}
}

func TestJSONLCanonicalShape(t *testing.T) {
	var b Buffer
	b.Emit(Event{T: 1.25, Node: 3, Role: "engine", Kind: "arrival", Detail: "svc 4"})
	b.Emit(Event{T: 2, Node: 0, Role: "organizer", Kind: "round.begin", Span: "round#1"})
	var out bytes.Buffer
	if err := b.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	want := `{"t":1.25,"node":3,"role":"engine","kind":"arrival","detail":"svc 4"}
{"t":2,"node":0,"role":"organizer","kind":"round.begin","span":"round#1"}
`
	if out.String() != want {
		t.Fatalf("canonical JSONL drifted:\n%s\nwant:\n%s", out.String(), want)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestJournalWriteJSONLReturnsWriteError(t *testing.T) {
	j := NewJournal()
	j.Scope("a").Emit(Event{Kind: "ok"})
	j.Scope("a").Emit(Event{Kind: "boom"})
	if err := j.WriteJSONL(&failWriter{n: 1}); err == nil || err.Error() != "disk full" {
		t.Fatalf("err = %v, want the second line's write error", err)
	}
}

func TestMultiFansOutToEverySink(t *testing.T) {
	a, b := NewRing(16), NewRing(16)
	sink := Multi{a, b}
	sink.Emit(Event{Kind: "arrival"})
	sink.Emit(Event{Kind: "reconcile"})
	for i, r := range []*Ring{a, b} {
		if ev := r.Events(); len(ev) != 2 || ev[0].Kind != "arrival" || ev[1].Kind != "reconcile" {
			t.Errorf("sink %d got %v, want arrival then reconcile", i, ev)
		}
	}
}

// BenchmarkRecorderNil pins the cost of observability-off: one nil
// check per call site, no allocation.
func BenchmarkRecorderNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Point(1, 0, "engine", "arrival", "")
		sp := r.Begin(1, 0, "engine", "round", "")
		sp.End(2, "")
	}
}

func BenchmarkRecorderBufferPoint(b *testing.B) {
	r := NewRecorder(&Buffer{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Point(1, 0, "engine", "arrival", "")
	}
}
