package fanout

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs the rest of the test at GOMAXPROCS = n.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// started records which indices fn was called with, in call order.
type started struct {
	mu    sync.Mutex
	order []int
}

func (s *started) add(i int) {
	s.mu.Lock()
	s.order = append(s.order, i)
	s.mu.Unlock()
}

func (s *started) sorted() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Sorted(slices.Values(s.order))
}

func prefix(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestEachResultsLandByIndex(t *testing.T) {
	const n = 257
	out := make([]int, n)
	if err := Each(context.Background(), n, func(_ context.Context, i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestEachZeroAndOne(t *testing.T) {
	if err := Each(context.Background(), 0, func(context.Context, int) error {
		t.Error("fn called for n = 0")
		return nil
	}); err != nil {
		t.Fatalf("n = 0: %v", err)
	}
	var calls []int
	if err := Each(context.Background(), 1, func(_ context.Context, i int) error {
		calls = append(calls, i)
		return nil
	}); err != nil || !slices.Equal(calls, []int{0}) {
		t.Fatalf("n = 1: calls %v, err %v", calls, err)
	}
	boom := errors.New("boom")
	if err := Each(context.Background(), 1, func(context.Context, int) error { return boom }); err != boom {
		t.Fatalf("n = 1 failing: err %v, want %v", err, boom)
	}
}

// TestEachLowestErrorWins: index 3 fails first in wall time, index 1
// later; the sequential loop would have stopped at 1, so 1's error is
// the one returned.
func TestEachLowestErrorWins(t *testing.T) {
	withProcs(t, 4)
	errLow, errHigh := errors.New("index 1"), errors.New("index 3")
	highDone := make(chan struct{})
	err := Each(context.Background(), 4, func(_ context.Context, i int) error {
		switch i {
		case 1:
			<-highDone
			time.Sleep(5 * time.Millisecond) // let the worker record index 3's failure first
			return errLow
		case 3:
			close(highDone)
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("err = %v, want the lowest failing index's (%v)", err, errLow)
	}
}

// TestEachNoIndexStartsAfterFailure: every worker holds one index, the
// last of the first wave fails, and the others are released only after
// the failure: nothing past the first wave is ever claimed.
func TestEachNoIndexStartsAfterFailure(t *testing.T) {
	w := runtime.GOMAXPROCS(0)
	k := w - 1
	boom := errors.New("boom")
	var (
		st      started
		running atomic.Int32
		release = make(chan struct{})
	)
	err := Each(context.Background(), 10*w, func(_ context.Context, i int) error {
		st.add(i)
		running.Add(1)
		if i != k {
			<-release
			return nil
		}
		for running.Load() < int32(w) {
			runtime.Gosched()
		}
		// Each gives no signal when it has recorded the failure; the
		// timer only has to outlast that one locked assignment.
		time.AfterFunc(50*time.Millisecond, func() { close(release) })
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := st.sorted(); !slices.Equal(got, prefix(w)) {
		t.Fatalf("started %v, want exactly the first wave %v", got, prefix(w))
	}
}

// TestEachStopsOnCancel: a context canceled while the first wave runs
// lets that wave finish and claims nothing after it; the cancellation is
// the result.
func TestEachStopsOnCancel(t *testing.T) {
	w := runtime.GOMAXPROCS(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		st       started
		running  atomic.Int32
		finished atomic.Int32
	)
	err := Each(ctx, 10*w, func(_ context.Context, i int) error {
		st.add(i)
		if running.Add(1) == int32(w) {
			cancel()
		}
		<-ctx.Done()
		finished.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := st.sorted(); !slices.Equal(got, prefix(w)) {
		t.Fatalf("started %v, want exactly the first wave %v", got, prefix(w))
	}
	if int(finished.Load()) != w {
		t.Fatalf("%d of %d claimed calls ran to completion", finished.Load(), w)
	}

	// Canceled before the call: nothing starts.
	if err := Each(ctx, 3, func(context.Context, int) error {
		t.Error("fn called under a canceled context")
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err = %v", err)
	}
}

// TestEachErrorBeatsLaterCancel: a failure at a claimed index outranks
// the cancellation that stopped the claims after it, as in the loop.
func TestEachErrorBeatsLaterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := Each(ctx, 100, func(_ context.Context, i int) error {
		if i == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestEachCapsWorkersAtN: with more cores than items, Each starts one
// goroutine fewer than there are items (the caller's is the other).
func TestEachCapsWorkersAtN(t *testing.T) {
	withProcs(t, 8)
	const n = 3
	if got := Workers(n); got != n {
		t.Fatalf("Workers(%d) = %d at GOMAXPROCS 8", n, got)
	}
	base := runtime.NumGoroutine()
	var (
		running atomic.Int32
		peak    atomic.Int64
	)
	sample := func() {
		for extra := int64(runtime.NumGoroutine() - base); ; {
			p := peak.Load()
			if extra <= p || peak.CompareAndSwap(p, extra) {
				return
			}
		}
	}
	if err := Each(context.Background(), n, func(context.Context, int) error {
		sample()
		running.Add(1)
		for running.Load() < n {
			sample()
			runtime.Gosched()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > n-1 {
		t.Fatalf("%d extra goroutines while %d items ran, want at most %d", p, n, n-1)
	}
}

// TestEachLeavesNoGoroutine: after Each returns, successful, failed or
// canceled, the goroutine count settles back to where it was.
func TestEachLeavesNoGoroutine(t *testing.T) {
	withProcs(t, 4)
	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		ctx context.Context
		fn  func(context.Context, int) error
	}{
		{context.Background(), func(context.Context, int) error { return nil }},
		{context.Background(), func(_ context.Context, i int) error {
			if i == 5 {
				return boom
			}
			return nil
		}},
		{ctx, func(context.Context, int) error { return nil }},
	} {
		Each(c.ctx, 64, c.fn)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Each returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEachOneProcIsTheLoop: at GOMAXPROCS = 1 the calls happen in index
// order, on the caller's goroutine, and a failure ends the run exactly
// where the loop would.
func TestEachOneProcIsTheLoop(t *testing.T) {
	withProcs(t, 1)
	var order []int
	err := Each(context.Background(), 20, func(_ context.Context, i int) error {
		order = append(order, i)
		if i == 12 {
			return fmt.Errorf("stop at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "stop at 12" {
		t.Fatalf("err = %v", err)
	}
	if !slices.Equal(order, prefix(13)) {
		t.Fatalf("order %v, want 0..12", order)
	}
}

// TestEachRepanicsOnCaller: a panic on any worker stops the claims and
// reaches the caller's goroutine, where the server's router can turn it
// into an error reply instead of the process dying.
func TestEachRepanicsOnCaller(t *testing.T) {
	withProcs(t, 4)
	var st started
	defer func() {
		if p := recover(); p != "item 2" {
			t.Fatalf("recovered %v, want the item's panic", p)
		}
		if got := len(st.sorted()); got >= 100 {
			t.Fatalf("%d of 1000 items started: the panic did not stop the claims", got)
		}
	}()
	Each(context.Background(), 1000, func(_ context.Context, i int) error {
		st.add(i)
		if i == 2 {
			panic("item 2")
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	t.Fatal("Each returned after a panic")
}
