package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced pass records a span around every call it makes into a layer's
// public functions. Spans live in memory and are written out once, when the
// pass ends; the untraced pass never touches this file's code, so the
// end-to-end numbers carry no tracing cost.

// span is one timed call: what was called, when, the span that caused it
// (0 for a root) and the request it belongs to (-1 for none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request int    `json:"request"`
	Start   int64  `json:"start_ns"` // since the tracer was made
	End     int64  `json:"end_ns"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span // span i has ID i+1
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, request int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Request: request, Start: now})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, request int, fn func()) time.Duration {
	id := t.begin(name, parent, request)
	fn()
	return t.end(id)
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (overlapping children are counted once).
func (t *tracer) selfTime(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	var kids []span
	for _, c := range t.spans {
		if c.Parent == id {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, upTo := int64(0), s.Start
	for _, c := range kids {
		from, to := max(c.Start, upTo), min(c.End, s.End)
		if to > from {
			covered += to - from
			upTo = to
		}
	}
	return time.Duration(s.End - s.Start - covered)
}

// writeFile writes the spans as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
