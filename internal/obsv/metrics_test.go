package obsv

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// opsOf indexes a registry's per-op rows by op.
func opsOf(r *Registry) map[string]OpSample {
	out := make(map[string]OpSample)
	for _, o := range r.Export().Ops {
		out[o.Op] = o
	}
	return out
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.String() != "n=0" {
		t.Fatalf("empty snapshot: %+v", s)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P50 != 50*time.Millisecond {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.P90 != 90*time.Millisecond {
		t.Fatalf("p90 = %v", s.P90)
	}
	if s.P99 != 99*time.Millisecond {
		t.Fatalf("p99 = %v", s.P99)
	}
	wantMean := 50500 * time.Microsecond
	if s.Mean != wantMean {
		t.Fatalf("mean = %v, want %v", s.Mean, wantMean)
	}
	if !strings.Contains(s.String(), "n=100") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(7 * time.Millisecond)
	s := h.Snapshot()
	if s.P50 != 7*time.Millisecond || s.P99 != 7*time.Millisecond || s.Mean != 7*time.Millisecond {
		t.Fatalf("single-sample snapshot wrong: %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if n := h.Snapshot().Count; n != 800 {
		t.Fatalf("count = %d", n)
	}
}

// TestHistogramBoundedMemory drives far more observations than the
// reservoir holds and checks memory stays bounded while the exact
// aggregates remain exact and percentile estimates stay sane.
func TestHistogramBoundedMemory(t *testing.T) {
	h := NewHistogram()
	const n = 100_000
	for i := 1; i <= n; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if got := len(h.samples); got > DefaultReservoirSize {
		t.Fatalf("reservoir holds %d samples, cap %d", got, DefaultReservoirSize)
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	if s.Min != time.Microsecond || s.Max != n*time.Microsecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	wantMean := time.Duration(n+1) * time.Microsecond / 2
	if s.Mean != wantMean {
		t.Fatalf("mean = %v, want %v", s.Mean, wantMean)
	}
	// The reservoir is a uniform sample: p50 of a uniform ramp should land
	// well inside the middle half. A generous band avoids flakiness while
	// still catching a broken (e.g. recency-biased) reservoir.
	if s.P50 < n/10*time.Microsecond || s.P50 > 9*n/10*time.Microsecond {
		t.Fatalf("p50 = %v implausible for uniform ramp", s.P50)
	}
}

func TestHistogramExactBelowCapacity(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.P50 != 50*time.Millisecond || s.P99 != 99*time.Millisecond {
		t.Fatalf("percentiles not exact below capacity: %+v", s)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Observe("Deposit", 2*time.Millisecond, 0)
	r.Observe("Deposit", 4*time.Millisecond, 4)
	r.Observe("Retrieve", time.Millisecond, 0)
	snap := opsOf(r)
	if len(snap) != 2 {
		t.Fatalf("ops = %d, want 2", len(snap))
	}
	dep := snap["Deposit"]
	if dep.Requests != 2 || dep.Errors != 1 || dep.Latency.Count != 2 {
		t.Fatalf("deposit snapshot: %+v", dep)
	}
	if dep.Latency.Max != 4*time.Millisecond {
		t.Fatalf("deposit max = %v", dep.Latency.Max)
	}
	if snap["Retrieve"].Errors != 0 {
		t.Fatal("retrieve errors nonzero")
	}
	if dep.String() == "" {
		t.Fatal("empty OpSnapshot.String")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			op := []string{"a", "b"}[g%2]
			for i := 0; i < 500; i++ {
				var code uint32
				if i%10 == 0 {
					code = 4
				}
				r.Observe(op, time.Microsecond, code)
			}
		}(g)
	}
	wg.Wait()
	snap := opsOf(r)
	if snap["a"].Requests != 2000 || snap["b"].Requests != 2000 {
		t.Fatalf("requests = %d/%d", snap["a"].Requests, snap["b"].Requests)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d", c.Value())
	}
}

func TestLabeledCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("errors_by_code", L("op", "Deposit"), L("code", "2"))
	// Same set, different order → same series.
	b := r.Counter("errors_by_code", L("code", "2"), L("op", "Deposit"))
	if a != b {
		t.Fatal("label order split one series into two")
	}
	c := r.Counter("errors_by_code", L("op", "Deposit"), L("code", "3"))
	if a == c {
		t.Fatal("distinct label values share a series")
	}
	a.Add(2)
	c.Inc()
	samples := r.Export().Counters
	if len(samples) != 2 {
		t.Fatalf("got %d series, want 2: %+v", len(samples), samples)
	}
	// Snapshot is sorted by name then canonical labels; labels are sorted
	// by key.
	if samples[0].Labels[0].Key != "code" || samples[0].Value != 2 {
		t.Fatalf("first sample = %+v", samples[0])
	}
}

func TestLabeledGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth", L("listener", "sd"))
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d", g.Value())
	}
	if same := r.Gauge("queue_depth", L("listener", "sd")); same != g {
		t.Fatal("re-registration returned a different gauge")
	}
	gs := r.Export().Gauges
	if len(gs) != 1 || gs[0].Value != 3 || gs[0].Name != "queue_depth" {
		t.Fatalf("gauges = %+v", gs)
	}
}

// TestGaugeFunc: a function-backed gauge is read at every Export, sorts
// with the stored gauges, and is one series however often it is registered.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	size := int64(0)
	for i := 0; i < 2; i++ {
		r.GaugeFunc("cache_entries", func() int64 { return size }, L("cache", "gid"))
	}
	r.Gauge("queue_depth").Set(3)
	r.Gauge("a_first").Set(1)
	for _, want := range []int64{0, 7} {
		size = want
		gs := r.Export().Gauges
		if len(gs) != 3 || gs[0].Name != "a_first" || gs[1].Name != "cache_entries" || gs[1].Value != want || gs[1].Labels[0] != L("cache", "gid") {
			t.Fatalf("gauges = %+v, want cache_entries = %d between the stored two", gs, want)
		}
	}
}

// TestLabeledConcurrent is the -race hammer: concurrent first-use
// registration and increments across a fixed set of series must produce
// exact totals.
func TestLabeledConcurrent(t *testing.T) {
	r := NewRegistry()
	codes := []string{"1", "2", "3", "4"}
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				code := codes[(g+i)%len(codes)]
				r.Counter("errs", L("code", code)).Inc()
				r.Gauge("depth", L("code", code)).Add(1)
			}
		}(g)
	}
	wg.Wait()
	var totalC, totalG int64
	for _, s := range r.Export().Counters {
		totalC += s.Value
	}
	for _, s := range r.Export().Gauges {
		totalG += s.Value
	}
	if totalC != goroutines*perG || totalG != goroutines*perG {
		t.Fatalf("totals = %d counter / %d gauge, want %d", totalC, totalG, goroutines*perG)
	}
	if n := len(r.Export().Counters); n != len(codes) {
		t.Fatalf("got %d counter series, want %d", n, len(codes))
	}
}

func TestObserveCode(t *testing.T) {
	r := NewRegistry()
	r.Observe("Deposit", time.Millisecond, 2)
	r.Observe("Deposit", time.Millisecond, 2)
	r.Observe("Deposit", time.Millisecond, 7)
	snap := opsOf(r)["Deposit"]
	if snap.ErrorCodes[2] != 2 || snap.ErrorCodes[7] != 1 {
		t.Fatalf("error codes = %+v", snap.ErrorCodes)
	}
	if s := snap.String(); !strings.Contains(s, "codes[2:2 7:1]") {
		t.Fatalf("String() drops code detail: %q", s)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Observe("Deposit", 2*time.Millisecond, 0)
	r.Observe("Deposit", 4*time.Millisecond, 2)
	r.Observe("a\"b", time.Millisecond, 0)
	r.Counter("pairing_ops").Add(42)
	r.Counter("errs", L("code", "q\"uo\\te\n")).Inc()
	r.Gauge("wal_fsync_p99_ns").Set(1234)

	e := r.Export()
	e.Counters = append(e.Counters, Sample{Name: "zz_extra", Value: 7})
	e.Gauges = append(e.Gauges, Sample{Name: "zz_gauge", Value: -1})
	var b strings.Builder
	WritePrometheus(&b, "mws", e)
	out := b.String()
	for _, want := range []string{
		"# TYPE mws_requests_total counter\n",
		`mws_requests_total{op="Deposit"} 2`,
		`mws_errors_total{op="Deposit"} 1`,
		`mws_errors_by_code_total{code="2",op="Deposit"} 1`,
		`mws_request_latency_seconds{op="Deposit",quantile="0.5"}`,
		`mws_request_latency_seconds_count{op="Deposit"} 2`,
		"mws_pairing_ops_total 42",
		// One renderer for every line: backslash, quote and newline are
		// escaped once, in a labeled counter and in a per-op line alike.
		`mws_errs_total{code="q\"uo\\te\n"} 1`,
		`mws_requests_total{op="a\"b"} 1`,
		`mws_request_latency_seconds_sum{op="a\"b"} 0.001`,
		"# TYPE mws_wal_fsync_p99_ns gauge",
		"mws_wal_fsync_p99_ns 1234",
		"mws_zz_extra_total 7",
		"mws_zz_gauge -1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestSeriesKeyInjective: label text holding the separators a naive key
// would join with must not alias another label set's series.
func TestSeriesKeyInjective(t *testing.T) {
	r := NewRegistry()
	one := r.Counter("x", L("a", "1,b=2"))
	two := r.Counter("x", L("a", "1"), L("b", "2"))
	if one == two {
		t.Fatal(`{a="1,b=2"} and {a="1",b="2"} share a series`)
	}
	if r.Counter("x", L("a", `1"b"2`)) == r.Counter("x", L("a", "1"), L("b", "2")) {
		t.Fatal("quoted label text aliases a two-label set")
	}
	one.Inc()
	if n := len(r.Export().Counters); n != 3 {
		t.Fatalf("%d series, want 3", n)
	}
	r.Gauge("x", L("a", "1,b=2")).Set(5)
	if one.Value() != 1 {
		t.Fatal("a gauge shares a counter's series")
	}
}
