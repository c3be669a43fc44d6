package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer of the
// program: a client round-trip, an HTTP handler, a shard call, an env
// constructor or an experiment driver. Times are offsets from the
// tracer's origin.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	ReqID  string        `json:"request_id,omitempty"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Tracer keeps spans in memory for the whole run; they are written out
// once the run ends, so recording costs an append under a mutex and
// never touches the disk while measuring. A nil *Tracer records nothing,
// which is how untraced runs stay free of tracing work.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
	nextID int64
	// current maps a routing key (probe id, "query") to the open span
	// that a nested call made on another goroutine should hang under:
	// the coordinator runs shard calls on its own goroutines, so the
	// shard wrapper finds its parent here.
	current map[string]int64
}

// NewTracer starts a tracer whose offsets count from now.
func NewTracer() *Tracer {
	return &Tracer{origin: time.Now(), current: make(map[string]int64)}
}

// Open starts a span and returns its id (0 on a nil tracer).
func (t *Tracer) Open(parent int64, reqID, name, layer string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, Span{ID: t.nextID, Parent: parent, ReqID: reqID, Name: name, Layer: layer, Start: now, End: -1})
	return t.nextID
}

// Close ends the span with the given id.
func (t *Tracer) Close(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Ids are assigned in append order, so span id-1 sits at index id-1.
	t.spans[id-1].End = now
}

// Bind records the open span a nested call keyed by key should use as
// its parent; Unbind drops it.
func (t *Tracer) Bind(key string, id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.current[key] = id
	t.mu.Unlock()
}

// Unbind forgets the key's parent span.
func (t *Tracer) Unbind(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.current, key)
	t.mu.Unlock()
}

// Bound returns the span bound to key (0 when none).
func (t *Tracer) Bound(key string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.current[key]
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.SpansSince(t.origin)
}

// SpansSince returns a copy of every closed span that started at or
// after at.
func (t *Tracer) SpansSince(at time.Time) []Span {
	if t == nil {
		return nil
	}
	from := at.Sub(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 && s.Start >= from {
			out = append(out, s)
		}
	}
	return out
}

// LayerTime is one layer's totals over a traced run.
type LayerTime struct {
	Layer string
	Count int
	Busy  time.Duration // summed span durations
	Self  time.Duration // summed self times (children subtracted)
}

// LayerTimes folds spans into per-layer count, busy time and self time.
// A span's self time is its duration minus the union of its children's
// intervals (SelfTime). The result is sorted by self time, largest
// first.
func LayerTimes(spans []Span) []LayerTime {
	kids := make(map[int64][]Interval)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], Interval{s.Start, s.End})
		}
	}
	byLayer := make(map[string]*LayerTime)
	for _, s := range spans {
		lt := byLayer[s.Layer]
		if lt == nil {
			lt = &LayerTime{Layer: s.Layer}
			byLayer[s.Layer] = lt
		}
		lt.Count++
		lt.Busy += s.End - s.Start
		lt.Self += SelfTime(Interval{s.Start, s.End}, kids[s.ID])
	}
	out := make([]LayerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// WriteSpans writes the spans as JSON lines.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
