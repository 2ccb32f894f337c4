package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed stage of one operation, recorded by the harness
// around a call into a layer's public function.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // spans of one operation share it
	ID     int    `json:"id"`     // 1-based
	Parent int    `json:"parent"` // 0 for an operation's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced pass in memory; they are written out
// when the pass is over. A nil tracer means an untraced phase.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	ops   int
	calls int // of alt
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// alt returns the tracer on every other call and nil in between, so a
// traced pass runs traced and untraced operations side by side, under
// the same load and the same grown state; the ratio of their latencies
// is the tracing overhead.
func (t *tracer) alt() *tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls++
	if t.calls%2 == 0 {
		return nil
	}
	return t
}

// op opens the root span of a new operation and returns its id. Like
// close and stage it does nothing on a nil tracer, so code shared by the
// traced and untraced passes needs no branches.
func (t *tracer) op(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return t.open(name, op, 0)
}

// open starts a span; parent 0 makes it a root.
func (t *tracer) open(name string, op, parent int) int {
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans) + 1, Parent: parent, Start: now})
	return len(t.spans)
}

// child starts a span under the root span id of the same operation.
func (t *tracer) child(name string, root int) int {
	t.mu.Lock()
	op := t.spans[root-1].Op
	t.mu.Unlock()
	return t.open(name, op, root)
}

func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// stage times fn as a child span of root.
func (t *tracer) stage(name string, root int, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.child(name, root)
	fn()
	t.close(id)
}

// spanStat aggregates the finished spans of one name.
type spanStat struct {
	count int
	total time.Duration // summed durations
	self  time.Duration // durations minus what child spans cover
}

// stats returns per-name totals. Children of one span never overlap here
// (the harness runs an operation's stages one after another), so self
// time is the span's duration minus the sum of its children's.
func (t *tracer) stats() map[string]*spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make(map[int]int64)
	for _, s := range t.spans {
		if s.End > 0 && s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*spanStat)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.count++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - covered[s.ID])
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(dir, workload string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), raw, 0o644)
}

// meanUs is the mean duration of the named span in microseconds.
func meanUs(stats map[string]*spanStat, name string) float64 {
	st := stats[name]
	if st == nil || st.count == 0 {
		return 0
	}
	return float64(st.total) / float64(st.count) / float64(time.Microsecond)
}
