package trace

import (
	"encoding/json"
	"io"
	"sync"
)

// writeJSONLine marshals v and appends a newline. encoding/json emits
// struct fields in declaration order, so lines are canonical.
func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Buffer retains every event in emission order. Unlike Ring it is
// unbounded; use it for test assertions and as the Journal's per-scope
// store.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Tracer.
func (b *Buffer) Emit(e Event) {
	b.mu.Lock()
	b.events = append(b.events, e)
	b.mu.Unlock()
}

// Events returns a copy of the retained events.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// Len returns the retained count.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// WriteJSONL serializes the retained events one JSON object per line.
func (b *Buffer) WriteJSONL(w io.Writer) error {
	for _, e := range b.Events() {
		if err := writeJSONLine(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Multi fans each event out to every sink in order.
type Multi []Tracer

// Emit implements Tracer.
func (m Multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}
