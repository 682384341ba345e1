package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The traced run wraps the driver's own calls into each layer in spans
// kept in memory and written out when the run ends. Spans live in this
// package only: instrumenting the program itself is a later change, so
// what is recorded here is the cost of each layer as seen from its
// public API.

// span is one timed call. trace groups the spans of one replication or
// formation; parent is the index of the enclosing span, -1 at the root.
type span struct {
	name       uint16
	trace      int32
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans from a single goroutine (the driver's). A nil
// tracer records nothing, so untraced runs pay one pointer check.
type tracer struct {
	epoch time.Time
	names []string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// name interns a span name; call sites resolve it once, outside loops.
func (t *tracer) name(s string) uint16 {
	if t == nil {
		return 0
	}
	for i, n := range t.names {
		if n == s {
			return uint16(i)
		}
	}
	t.names = append(t.names, s)
	return uint16(len(t.names) - 1)
}

// begin opens a span now and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name uint16, trace, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, trace: int32(trace), parent: int32(parent),
		start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// endAt closes a span at an instant stamped elsewhere (a formation ends
// when its callback fires, not when the driver goroutine learns of it).
func (t *tracer) endAt(i int, at time.Time) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(at.Sub(t.epoch))
}

// spanTotal aggregates every span of one name. Self is the time not
// covered by child spans: the layer's own share of the interval.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func (t *tracer) totals() []spanTotal {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	agg := make([]spanTotal, len(t.names))
	for i, n := range t.names {
		agg[i].Name = n
	}
	for i, s := range t.spans {
		a := &agg[s.name]
		a.Count++
		a.TotalUS += float64(s.end-s.start) / 1e3
		a.SelfUS += float64(s.end-s.start-child[i]) / 1e3
	}
	sort.Slice(agg, func(i, j int) bool { return agg[i].Name < agg[j].Name })
	return agg
}

// rawSpanCap bounds the raw spans written out; the totals cover all.
const rawSpanCap = 20000

type rawSpan struct {
	Name    string `json:"name"`
	Trace   int32  `json:"trace"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// write dumps the totals and the first rawSpanCap spans as one JSON
// document and returns the path written.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	n := len(t.spans)
	if n > rawSpanCap {
		n = rawSpanCap
	}
	raw := make([]rawSpan, n)
	for i, s := range t.spans[:n] {
		raw[i] = rawSpan{Name: t.names[s.name], Trace: s.trace, Parent: s.parent, StartNS: s.start, EndNS: s.end}
	}
	doc := struct {
		Spans  int         `json:"spans"`
		Totals []spanTotal `json:"totals"`
		Raw    []rawSpan   `json:"raw"`
	}{len(t.spans), t.totals(), raw}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	return path, os.WriteFile(path, b, 0o644)
}
