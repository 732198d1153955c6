package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call in a traced run. Spans of one operation share
// op; parent is the id of the span that caused this one (0 for a root).
// A replayed layer call is a child of the request it replays, though it
// runs after the request has finished; a probe span measures alone work
// its parent call performs internally.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }
func (s span) ms() float64        { return float64(s.End-s.Start) / 1e6 }

// tracer keeps a run's spans in memory; they are written out when the
// run ends. Safe for concurrent use.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	lastOp int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// newOp returns a fresh operation id.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastOp++
	return t.lastOp
}

// add records a finished span and returns its id.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// time runs f as a span and returns its id.
func (t *tracer) time(op, parent int, name string, f func()) int {
	start := time.Now()
	f()
	return t.add(op, parent, name, start, time.Now())
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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

// layerTimes folds spans into per-operation durations: for each span
// name, the milliseconds each operation spent in spans of that name.
func layerTimes(spans []span) map[string][]float64 {
	perOp := map[string]map[int]float64{}
	for _, s := range spans {
		m := perOp[s.Name]
		if m == nil {
			m = map[int]float64{}
			perOp[s.Name] = m
		}
		m[s.Op] += s.ms()
	}
	out := map[string][]float64{}
	for name, m := range perOp {
		for _, v := range m {
			out[name] = append(out[name], v)
		}
	}
	return out
}

// selfTimes returns, for every span named name, its self time in
// milliseconds: its duration minus the time its direct children cover.
func selfTimes(spans []span, name string) []float64 {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(selfTime(s.interval(), children[s.ID]))/1e6)
		}
	}
	return out
}

// setMedian reports the median of samples as metric name. With no
// samples the metric stays unset, and a traced run reports it as 0.
func (o *outcome) setMedian(name string, samples []float64) {
	if len(samples) > 0 {
		o.set(name, median(samples), len(samples))
	}
}

// tracePath names a traced run's span file.
func tracePath(cfg config) string {
	return fmt.Sprintf("%s/trace-%s-seed%d.jsonl", cfg.work, cfg.workload, cfg.seed)
}
