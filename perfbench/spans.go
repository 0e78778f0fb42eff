package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the in-memory span log: the per-layer figures need a
// sample of the operations, not all of them. Spans past the bound are
// counted, not kept.
const maxSpans = 1 << 18

// span is one timed call the benchmark made into a layer of the program.
// Spans of one operation share the operation's root through Parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer records spans around the benchmark's own calls, in memory, and
// writes them once at exit. A nil *tracer records nothing, which is how
// the timed (untraced) runs call it.
type tracer struct {
	epoch   time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a started span; close it with (*tracer).end.
type open struct {
	id, parent int64
	name       string
	start      time.Time
}

// begin starts a span under parent (0 for a root) and returns it; the
// returned id parents child spans.
func (t *tracer) begin(name string, parent int64) open {
	if t == nil {
		return open{}
	}
	return open{id: t.next.Add(1), parent: parent, name: name, start: time.Now()}
}

// end closes a span begun by begin.
func (t *tracer) end(o open) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: o.id, Parent: o.parent, Name: o.name,
			Start: o.start.Sub(t.epoch).Nanoseconds(), End: now.Sub(t.epoch).Nanoseconds()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// durations returns the recorded durations of every span with the given
// name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the span log as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Epoch   time.Time `json:"epoch"`
		Dropped int       `json:"dropped"`
		Spans   []span    `json:"spans"`
	}{t.epoch, t.dropped, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
