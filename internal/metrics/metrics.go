// Package metrics provides the lightweight instrumentation the server
// pipeline and benchmark harness use to report latency distributions and
// throughput — the numbers the paper's evaluation never published but its
// §III(iv) scalability requirement demands.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultReservoirSize bounds the samples a Histogram retains. 2048
// samples keep percentile error under ~1% while holding memory constant
// no matter how long the server runs.
const DefaultReservoirSize = 2048

// Histogram records durations and reports percentile statistics. It keeps
// a fixed-size uniform reservoir (Vitter's Algorithm R), so memory stays
// bounded on a long-running server while Min, Max, Mean, Total, and Count
// remain exact; percentiles are estimated from the reservoir. Safe for
// concurrent use.
type Histogram struct {
	mu       sync.Mutex
	capacity int
	samples  []time.Duration // reservoir, len <= capacity
	count    uint64          // total observations, exact
	total    time.Duration
	min, max time.Duration
	rng      uint64 // xorshift64 state for reservoir replacement
}

// NewHistogram returns an empty histogram with the default reservoir size.
func NewHistogram() *Histogram { return NewHistogramSize(DefaultReservoirSize) }

// NewHistogramSize returns an empty histogram retaining at most n samples.
func NewHistogramSize(n int) *Histogram {
	if n <= 0 {
		n = DefaultReservoirSize
	}
	return &Histogram{capacity: n, rng: 0x9E3779B97F4A7C15}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if h.count == 0 || d > h.max {
		h.max = d
	}
	h.count++
	h.total += d
	if len(h.samples) < h.capacity {
		h.samples = append(h.samples, d)
	} else {
		// Replace a random slot with probability capacity/count, which
		// keeps every observation equally likely to be in the reservoir.
		h.rng ^= h.rng << 13
		h.rng ^= h.rng >> 7
		h.rng ^= h.rng << 17
		if idx := h.rng % h.count; idx < uint64(h.capacity) {
			h.samples[idx] = d
		}
	}
	h.mu.Unlock()
}

// Time runs fn and records its wall-clock duration.
func (h *Histogram) Time(fn func()) {
	start := time.Now()
	fn()
	h.Observe(time.Since(start))
}

// Count returns the number of observations (not the retained sample count).
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Snapshot summarizes the recorded samples. Count, Min, Max, Mean, and
// Total are exact; the percentiles are reservoir estimates once the
// observation count exceeds the reservoir size.
type Snapshot struct {
	Count          int
	Min, Max, Mean time.Duration
	P50, P90, P99  time.Duration
	Total          time.Duration
}

// Snapshot computes the distribution summary.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	samples := make([]time.Duration, len(h.samples))
	copy(samples, h.samples)
	count, total, min, max := h.count, h.total, h.min, h.max
	h.mu.Unlock()
	if count == 0 {
		return Snapshot{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pct := func(p float64) time.Duration {
		idx := int(math.Ceil(p*float64(len(samples)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		return samples[idx]
	}
	return Snapshot{
		Count: int(count),
		Min:   min,
		Max:   max,
		Mean:  total / time.Duration(count),
		P50:   pct(0.50),
		P90:   pct(0.90),
		P99:   pct(0.99),
		Total: total,
	}
}

// String renders the snapshot as one report row.
func (s Snapshot) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%v p50=%v p90=%v p99=%v max=%v mean=%v",
		s.Count, s.Min, s.P50, s.P90, s.P99, s.Max, s.Mean)
}

// Counter is a monotonically increasing counter, safe for concurrent use.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// opStats is one operation's instrumentation: request/error totals, a
// latency reservoir, and a per-error-code breakdown.
type opStats struct {
	requests Counter
	errors   Counter
	latency  *Histogram

	codeMu sync.Mutex
	codes  map[uint32]uint64
}

// Registry tracks per-operation request counts, error counts, and latency
// distributions, plus free-form labeled counter and gauge series. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	ops      map[string]*opStats
	counters map[seriesKey]*counterSeries
	gauges   map[seriesKey]*gaugeSeries
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ops:      make(map[string]*opStats),
		counters: make(map[seriesKey]*counterSeries),
		gauges:   make(map[seriesKey]*gaugeSeries),
	}
}

func (r *Registry) get(op string) *opStats {
	r.mu.RLock()
	s, ok := r.ops[op]
	r.mu.RUnlock()
	if ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok = r.ops[op]; ok {
		return s
	}
	s = &opStats{latency: NewHistogram()}
	r.ops[op] = s
	return s
}

// Observe records one completed operation.
func (r *Registry) Observe(op string, d time.Duration, isErr bool) {
	s := r.get(op)
	s.requests.Inc()
	if isErr {
		s.errors.Inc()
	}
	s.latency.Observe(d)
}

// ObserveCode attributes one error on op to a structured error code, so
// operators can tell authentication failures from timeouts without
// grepping logs. Call it alongside Observe(op, d, true).
func (r *Registry) ObserveCode(op string, code uint32) {
	s := r.get(op)
	s.codeMu.Lock()
	if s.codes == nil {
		s.codes = make(map[uint32]uint64)
	}
	s.codes[code]++
	s.codeMu.Unlock()
}

// OpSnapshot is one operation's totals, latency summary, and error-code
// breakdown.
type OpSnapshot struct {
	Requests   uint64
	Errors     uint64
	Latency    Snapshot
	ErrorCodes map[uint32]uint64 // nil when no coded errors were observed
}

// String renders the op snapshot as one report row.
func (s OpSnapshot) String() string {
	base := fmt.Sprintf("requests=%d errors=%d %s", s.Requests, s.Errors, s.Latency)
	if len(s.ErrorCodes) == 0 {
		return base
	}
	codes := make([]uint32, 0, len(s.ErrorCodes))
	for c := range s.ErrorCodes {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	parts := make([]string, 0, len(codes))
	for _, c := range codes {
		parts = append(parts, fmt.Sprintf("%d:%d", c, s.ErrorCodes[c]))
	}
	return base + " codes[" + strings.Join(parts, " ") + "]"
}

// Snapshot returns a point-in-time view of every operation observed so far.
func (r *Registry) Snapshot() map[string]OpSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]OpSnapshot, len(r.ops))
	for op, s := range r.ops {
		var codes map[uint32]uint64
		s.codeMu.Lock()
		if len(s.codes) > 0 {
			codes = make(map[uint32]uint64, len(s.codes))
			for c, n := range s.codes {
				codes[c] = n
			}
		}
		s.codeMu.Unlock()
		out[op] = OpSnapshot{
			Requests:   s.requests.Value(),
			Errors:     s.errors.Value(),
			Latency:    s.latency.Snapshot(),
			ErrorCodes: codes,
		}
	}
	return out
}

// FormatSnapshot renders a registry snapshot as one stable, sorted log
// line ("op: requests=... errors=... n=... p50=... | ..."), the format the
// daemons' periodic stats lines use.
func FormatSnapshot(snap map[string]OpSnapshot) string {
	if len(snap) == 0 {
		return "no requests served"
	}
	ops := make([]string, 0, len(snap))
	for op := range snap {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	parts := make([]string, 0, len(ops))
	for _, op := range ops {
		parts = append(parts, fmt.Sprintf("%s: %s", op, snap[op]))
	}
	return strings.Join(parts, " | ")
}
