package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call.  Start and End are nanoseconds since the
// tracer started; Parent is the ID of the span that caused it, -1 for a
// root.  Spans of one job share Job.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID (-1 on a nil tracer).
func (t *tracer) add(name string, parent int, job string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int, job string, start time.Time) int {
	return t.add(name, parent, job, start, start)
}

func (t *tracer) close(id int, job string, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	if job != "" {
		t.spans[id].Job = job
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
