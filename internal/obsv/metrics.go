package obsv

import (
	"cmp"
	"fmt"
	"log/slog"
	"maps"
	"math"
	"slices"
	"strconv"
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
	samples  []time.Duration // reservoir, len <= DefaultReservoirSize
	count    uint64          // total observations, exact
	total    time.Duration
	min, max time.Duration
	rng      uint64 // xorshift64 state for reservoir replacement
}

// NewHistogram returns an empty histogram with the default reservoir size.
func NewHistogram() *Histogram { return &Histogram{rng: 0x9E3779B97F4A7C15} }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	if h.count == 0 {
		h.min, h.max = d, d
	}
	h.min, h.max = min(h.min, d), max(h.max, d)
	h.count++
	h.total += d
	if len(h.samples) < DefaultReservoirSize {
		h.samples = append(h.samples, d)
	} else {
		// Replace a random slot with probability capacity/count, which
		// keeps every observation equally likely to be in the reservoir.
		h.rng ^= h.rng << 13
		h.rng ^= h.rng >> 7
		h.rng ^= h.rng << 17
		if idx := h.rng % h.count; idx < DefaultReservoirSize {
			h.samples[idx] = d
		}
	}
	h.mu.Unlock()
}

// Summary describes the durations a Histogram has seen. Count, Min, Max,
// Mean, and Total are exact; the percentiles are reservoir estimates once
// the observation count exceeds the reservoir size.
type Summary struct {
	Count          int
	Min, Max, Mean time.Duration
	P50, P90, P99  time.Duration
	Total          time.Duration
}

// Snapshot computes the distribution summary.
func (h *Histogram) Snapshot() Summary {
	h.mu.Lock()
	samples := slices.Clone(h.samples)
	count, total, lo, hi := h.count, h.total, h.min, h.max
	h.mu.Unlock()
	if count == 0 {
		return Summary{}
	}
	slices.Sort(samples)
	pct := func(p float64) time.Duration {
		idx := int(math.Ceil(p*float64(len(samples)))) - 1
		return samples[max(0, min(idx, len(samples)-1))]
	}
	return Summary{
		Count: int(count),
		Min:   lo,
		Max:   hi,
		Mean:  total / time.Duration(count),
		P50:   pct(0.50),
		P90:   pct(0.90),
		P99:   pct(0.99),
		Total: total,
	}
}

// String renders the summary as one report row.
func (s Summary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%v p50=%v p90=%v p99=%v max=%v mean=%v",
		s.Count, s.Min, s.P50, s.P90, s.P99, s.Max, s.Mean)
}

// Label is one key=value pair of telemetry text: a dimension of a counter
// or gauge series, or an annotation on a span. It is the one way such
// text enters telemetry, and it is operator-facing: operation names,
// error codes, shard numbers, identities, digests and sizes belong in it,
// key material and plaintext never do (mwslint's secretlog analyzer
// treats L, Label literals and Span.SetAttr as sinks).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label at a call site.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Sample is a point-in-time reading of one counter or gauge series, its
// labels sorted by key: the one shape in which such a number leaves the
// process, on /metrics and in the TStats message alike. A counter's
// Value is its running total.
type Sample struct {
	Name   string
	Labels []Label
	Value  int64
}

// series is one live counter or gauge of a Registry.
type series struct {
	name   string
	labels []Label // sorted by key
	gauge  bool
	v      atomic.Int64
	read   func() int64 // GaugeFunc's or CounterFunc's reader: Export reports it in place of v
}

// Counter is a monotonically increasing series, safe for concurrent use.
// The zero value is a usable counter outside any registry.
type Counter series

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.v.Add(int64(delta)) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return uint64(c.v.Load()) }

// Gauge is an instantaneous signed series, safe for concurrent use.
type Gauge series

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// opStats is one operation's instrumentation: request/error totals, a
// latency reservoir, and a per-error-code breakdown.
type opStats struct {
	requests, errors atomic.Uint64
	latency          *Histogram

	codeMu sync.Mutex
	codes  map[uint32]uint64
}

// Registry tracks per-operation request counts, error counts, and latency
// distributions, plus free-form labeled counter and gauge series. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	ops    map[string]*opStats
	series map[string]*series // by seriesKey
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ops: make(map[string]*opStats), series: make(map[string]*series)}
}

// getOrCreate returns m[key], storing mk() there first when it is absent.
// The common case — the entry exists — takes only the read lock.
func getOrCreate[T any](mu *sync.RWMutex, m map[string]*T, key string, mk func() *T) *T {
	mu.RLock()
	v, ok := m[key]
	mu.RUnlock()
	if ok {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v, ok = m[key]; !ok {
		v = mk()
		m[key] = v
	}
	return v
}

// Observe records one completed operation and how long it took. A nonzero
// code marks it failed and attributes the failure to that structured
// error code, so operators can tell authentication failures from timeouts
// without grepping logs.
func (r *Registry) Observe(op string, d time.Duration, code uint32) {
	s := getOrCreate(&r.mu, r.ops, op, func() *opStats { return &opStats{latency: NewHistogram()} })
	s.requests.Add(1)
	s.latency.Observe(d)
	if code == 0 {
		return
	}
	s.errors.Add(1)
	s.codeMu.Lock()
	if s.codes == nil {
		s.codes = make(map[uint32]uint64)
	}
	s.codes[code]++
	s.codeMu.Unlock()
}

// seriesKey renders a kind, a name and a key-sorted label set into the
// registry's map key. Every string is quoted, so no label text — a value
// holding `,` or `=` included — makes two different sets share a series.
func seriesKey(gauge bool, name string, labels []Label) string {
	b := strconv.AppendQuote(strconv.AppendBool(nil, gauge), name)
	for _, l := range labels {
		b = strconv.AppendQuote(strconv.AppendQuote(b, l.Key), l.Value)
	}
	return string(b)
}

// lookup returns (registering on first use) the series of the given kind,
// name and label set. Labels are sorted by key, so the same set given in
// any order is one series.
func (r *Registry) lookup(gauge bool, name string, labels []Label, read func() int64) *series {
	labels = slices.Clone(labels)
	slices.SortStableFunc(labels, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	return getOrCreate(&r.mu, r.series, seriesKey(gauge, name, labels), func() *series {
		return &series{name: name, labels: labels, gauge: gauge, read: read}
	})
}

// Counter returns (registering on first use) the counter series for the
// given name and label set. The returned pointer is stable, so hot paths
// should resolve it once and call Inc/Add on the result.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return (*Counter)(r.lookup(false, name, labels, nil))
}

// Gauge returns (registering on first use) the gauge series for the given
// name and label set.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return (*Gauge)(r.lookup(true, name, labels, nil))
}

// GaugeFunc registers a gauge series that Export fills by calling read, for
// a size its owner already tracks (a cache, a guard): the hot path pays
// nothing for it. read runs outside the registry's lock and must be safe
// for concurrent use. A series registered before keeps its first reader.
func (r *Registry) GaugeFunc(name string, read func() int64, labels ...Label) {
	r.lookup(true, name, labels, read)
}

// CounterFunc is GaugeFunc for a running total its owner already keeps
// (a log's sync count).
func (r *Registry) CounterFunc(name string, read func() int64, labels ...Label) {
	r.lookup(false, name, labels, read)
}

// OpSample is one operation's totals, latency summary, and error-code
// breakdown.
type OpSample struct {
	Op         string
	Requests   uint64
	Errors     uint64
	Latency    Summary
	ErrorCodes map[uint32]uint64 // nil when no coded errors were observed
}

// String renders the op sample as one report row.
func (s OpSample) String() string {
	base := fmt.Sprintf("%s: requests=%d errors=%d %s", s.Op, s.Requests, s.Errors, s.Latency)
	if len(s.ErrorCodes) == 0 {
		return base
	}
	parts := make([]string, 0, len(s.ErrorCodes))
	for _, c := range slices.Sorted(maps.Keys(s.ErrorCodes)) {
		parts = append(parts, fmt.Sprintf("%d:%d", c, s.ErrorCodes[c]))
	}
	return base + " codes[" + strings.Join(parts, " ") + "]"
}

// Export is a registry flattened for an export surface: per-op rows
// sorted by op, then every counter and every gauge series sorted by name
// and label set. The per-code error counts appear twice, in their op's
// row and as errors_by_code{code,op} counters.
type Export struct {
	Ops      []OpSample
	Counters []Sample
	Gauges   []Sample
}

// Export returns a point-in-time view of everything the registry has
// observed so far. It is the only walk over a registry: /metrics, TStats,
// the daemons' stats log line and Deployment.MetricsSnapshot all read its
// result.
func (r *Registry) Export() Export {
	var e Export
	r.mu.RLock()
	for op, s := range r.ops {
		o := OpSample{Op: op, Requests: s.requests.Load(), Errors: s.errors.Load(), Latency: s.latency.Snapshot()}
		s.codeMu.Lock()
		o.ErrorCodes = maps.Clone(s.codes)
		s.codeMu.Unlock()
		for c, n := range o.ErrorCodes {
			e.Counters = append(e.Counters, Sample{
				Name:   "errors_by_code",
				Labels: []Label{L("code", strconv.FormatUint(uint64(c), 10)), L("op", op)},
				Value:  int64(n),
			})
		}
		e.Ops = append(e.Ops, o)
	}
	live := slices.Collect(maps.Values(r.series))
	r.mu.RUnlock()
	for _, s := range live { // outside the lock: read is caller-supplied code
		dst, v := &e.Counters, s.v.Load()
		if s.gauge {
			dst = &e.Gauges
		}
		if s.read != nil {
			v = s.read()
		}
		*dst = append(*dst, Sample{Name: s.name, Labels: s.labels, Value: v})
	}
	slices.SortFunc(e.Ops, func(a, b OpSample) int { return strings.Compare(a.Op, b.Op) })
	sortSamples(e.Counters)
	sortSamples(e.Gauges)
	return e
}

// sortSamples orders samples by name, then label by label.
func sortSamples(s []Sample) {
	slices.SortFunc(s, func(a, b Sample) int {
		return cmp.Or(strings.Compare(a.Name, b.Name), slices.CompareFunc(a.Labels, b.Labels, func(x, y Label) int {
			return cmp.Or(strings.Compare(x.Key, y.Key), strings.Compare(x.Value, y.Value))
		}))
	})
}

// FormatSnapshot renders per-op rows as one stable log line
// ("op: requests=... errors=... n=... p50=... | ..."), the format the
// daemons' periodic stats lines use.
func FormatSnapshot(ops []OpSample) string {
	if len(ops) == 0 {
		return "no requests served"
	}
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, " | ")
}

// LogStats logs msg with the connection count and reg's per-op rows every
// interval, giving operators the latency/error surface without scraping.
// The returned function stops the ticker and waits for it; an interval
// <= 0 logs nothing.
func LogStats(interval time.Duration, logger *slog.Logger, msg string, conns func() int, reg *Registry) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				logger.Info(msg, "conns", conns(), "ops", FormatSnapshot(reg.Export().Ops))
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}
