package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

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

func TestHistogramTime(t *testing.T) {
	h := NewHistogram()
	h.Time(func() { time.Sleep(time.Millisecond) })
	if h.Count() != 1 {
		t.Fatal("Time did not record")
	}
	if h.Snapshot().Min < time.Millisecond {
		t.Fatal("recorded duration implausibly small")
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
	if h.Count() != 800 {
		t.Fatalf("count = %d", h.Count())
	}
}

// TestHistogramBoundedMemory drives far more observations than the
// reservoir holds and checks memory stays bounded while the exact
// aggregates remain exact and percentile estimates stay sane.
func TestHistogramBoundedMemory(t *testing.T) {
	h := NewHistogramSize(64)
	const n = 100_000
	for i := 1; i <= n; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if got := len(h.samples); got > 64 {
		t.Fatalf("reservoir holds %d samples, cap 64", got)
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
	h := NewHistogramSize(128)
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
	r.Observe("Deposit", 2*time.Millisecond, false)
	r.Observe("Deposit", 4*time.Millisecond, true)
	r.Observe("Retrieve", time.Millisecond, false)
	snap := r.Snapshot()
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
				r.Observe(op, time.Microsecond, i%10 == 0)
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
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
