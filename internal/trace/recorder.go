package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Recorder is the structured flight recorder layered over a Tracer
// sink. It adds two things the bare Tracer interface does not have:
// nil-safety (a nil *Recorder discards everything at the cost of one
// pointer check, which is what keeps observability-off free on the hot
// path — see BenchmarkRecorderNil) and spans, paired begin/end events
// that bracket multi-step work such as a negotiation round, an
// adaptation pass, or a reclamation sweep.
//
// Span IDs are sequential per Recorder. Deterministic traces therefore
// require one Recorder per deterministic unit of work (the experiment
// harness gives every replication its own recorder over its own Journal
// scope); sharing one recorder across concurrent replications would
// interleave IDs in scheduling order.
type Recorder struct {
	sink  Tracer
	spans atomic.Uint64
}

// NewRecorder wraps sink. A nil or Nop sink yields a nil Recorder so
// the disabled path is a single pointer test at every call site.
func NewRecorder(sink Tracer) *Recorder {
	if sink == nil {
		return nil
	}
	if _, off := sink.(Nop); off {
		return nil
	}
	return &Recorder{sink: sink}
}

// Enabled reports whether events reach a sink.
func (r *Recorder) Enabled() bool { return r != nil }

// Emit forwards one event; nil-safe.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.sink.Emit(e)
}

// Point emits a point event; nil-safe.
func (r *Recorder) Point(t float64, node int, role, kind, detail string) {
	if r == nil {
		return
	}
	r.sink.Emit(Event{T: t, Node: node, Role: role, Kind: kind, Detail: detail})
}

// Begin opens a span: emits "<kind>.begin" and returns the handle whose
// End emits the matching "<kind>.end". On a nil Recorder the returned
// zero Span is inert.
func (r *Recorder) Begin(t float64, node int, role, kind, detail string) Span {
	if r == nil {
		return Span{}
	}
	id := fmt.Sprintf("%s#%d", kind, r.spans.Add(1))
	r.sink.Emit(Event{T: t, Node: node, Role: role, Kind: kind + ".begin", Detail: detail, Span: id})
	return Span{r: r, id: id, node: node, role: role, kind: kind}
}

// Span is an open begin/end pair. The zero value (from a nil Recorder)
// discards End.
type Span struct {
	r    *Recorder
	id   string
	node int
	role string
	kind string
}

// End closes the span.
func (s Span) End(t float64, detail string) {
	if s.r == nil {
		return
	}
	s.r.sink.Emit(Event{T: t, Node: s.node, Role: s.role, Kind: s.kind + ".end", Detail: detail, Span: s.id})
}

// Journal collects events from concurrently running units of work into
// named scopes and writes them back out in sorted-scope order, making
// the serialized trace independent of which unit finished first. It is
// the trace-side twin of metrics.Accumulator's slot indexing: the
// experiment harness names each scope "<experiment>/<global rep index>"
// (zero-padded), events within a scope arrive in that replication's own
// deterministic order, and WriteJSONL walks scopes sorted — so the
// bytes are identical at parallel 1 and parallel 8 for the same seed.
type Journal struct {
	mu     sync.Mutex
	scopes map[string]*Buffer
}

// NewJournal builds an empty journal.
func NewJournal() *Journal {
	return &Journal{scopes: make(map[string]*Buffer)}
}

// ScopeName renders the canonical scope key for replication index i of
// group (zero-padded so lexicographic order is numeric order).
func ScopeName(group string, i int) string {
	return fmt.Sprintf("%s/%04d", group, i)
}

// Scope returns the buffer for name, creating it on first use. Each
// concurrent unit of work must own a distinct scope.
func (j *Journal) Scope(name string) *Buffer {
	j.mu.Lock()
	defer j.mu.Unlock()
	b := j.scopes[name]
	if b == nil {
		b = &Buffer{}
		j.scopes[name] = b
	}
	return b
}

// Scopes returns the scope names sorted.
func (j *Journal) Scopes() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	names := make([]string, 0, len(j.scopes))
	for k := range j.scopes {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Total counts events across all scopes.
func (j *Journal) Total() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, b := range j.scopes {
		n += b.Len()
	}
	return n
}

// scopedEvent is the JSONL line shape: the scope key first, then the
// event fields flattened in Event's canonical order.
type scopedEvent struct {
	Scope string `json:"scope"`
	Event
}

// WriteJSONL serializes every scope in sorted order, each event as one
// JSON line carrying its scope key.
func (j *Journal) WriteJSONL(w io.Writer) error {
	for _, name := range j.Scopes() {
		b := j.Scope(name)
		for _, e := range b.Events() {
			if err := writeJSONLine(w, scopedEvent{Scope: name, Event: e}); err != nil {
				return err
			}
		}
	}
	return nil
}
