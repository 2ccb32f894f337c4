package wal

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// gatedSync is a committer sync function the test holds the gate of:
// every call announces itself on entered, then blocks until the test
// sends on release.
type gatedSync struct {
	entered chan struct{}
	release chan struct{}
}

func newGatedSync() *gatedSync {
	// entered is buffered past the most syncs any test lets run (two), so
	// announcing never holds the committer up.
	return &gatedSync{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gatedSync) sync() error {
	g.entered <- struct{}{}
	<-g.release
	return nil
}

// waitUntil spins until cond holds under c.mu.
func waitUntil(t *testing.T, c *committer, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		ok := cond()
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("committer never reached the expected state")
		}
		runtime.Gosched()
	}
}

// waitForGoroutines polls until the goroutine count falls back to the
// baseline; the flush goroutine unlocks c.mu a hair before it returns,
// so an instantaneous count after close() can still see it.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutine count stuck at %d, want <= %d", runtime.NumGoroutine(), baseline)
}

// TestCommitterBatchesWaiters is group commit's headline property, made
// deterministic: K appenders that register while a sync is in flight
// share the next one, so 1+K acknowledged appends cost exactly two syncs.
func TestCommitterBatchesWaiters(t *testing.T) {
	g := newGatedSync()
	c := newCommitter(g.sync)

	const k = 8
	acks := make(chan error, 1+k)
	go func() { acks <- c.wait() }()
	<-g.entered // sync #1 is in flight for the first waiter

	for i := 0; i < k; i++ {
		go func() { acks <- c.wait() }()
	}
	waitUntil(t, c, func() bool { return len(c.waiters) == k })
	select {
	case err := <-acks:
		t.Fatalf("a waiter was released before its sync finished (err=%v)", err)
	default:
	}

	g.release <- struct{}{} // sync #1 done: releases the first waiter only
	if err := <-acks; err != nil {
		t.Fatal(err)
	}
	<-g.entered // sync #2 picked up all k late arrivals at once
	waitUntil(t, c, func() bool { return len(c.waiters) == 0 })
	select {
	case err := <-acks:
		t.Fatalf("a batched waiter was released before sync #2 finished (err=%v)", err)
	default:
	}
	g.release <- struct{}{}
	for i := 0; i < k; i++ {
		if err := <-acks; err != nil {
			t.Fatal(err)
		}
	}

	waitUntil(t, c, func() bool { return !c.flushing })
	select {
	case <-g.entered:
		t.Fatal("a third sync ran with nobody waiting")
	default:
	}
	c.close()
}

// TestCommitterCloseDrainsInflightFlush closes the committer while a
// flush round is parked in its sync: close must block until that round
// drains its waiter and the flush goroutine exits, so no goroutine
// outlives the log that Close shuts.
func TestCommitterCloseDrainsInflightFlush(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := newGatedSync()
	c := newCommitter(g.sync)

	ack := make(chan error, 1)
	go func() { ack <- c.wait() }()
	<-g.entered // the waiter registered and its round is mid-sync

	closed := make(chan struct{})
	go func() { c.close(); close(closed) }()
	waitUntil(t, c, func() bool { return c.closed })
	select {
	case <-closed:
		t.Fatal("close() returned while a sync was in flight")
	default:
	}
	g.release <- struct{}{}
	<-closed

	// close returned, so the round must have completed: the waiter's ack
	// is already buffered and the flush goroutine is gone.
	select {
	case err := <-ack:
		if err != nil {
			t.Fatalf("drained waiter got error: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not released by the time close() returned")
	}
	c.mu.Lock()
	if c.flushing {
		t.Error("flushing still set after close()")
	}
	c.mu.Unlock()
	waitForGoroutines(t, baseline)

	if err := c.wait(); err != ErrClosed {
		t.Errorf("wait after close = %v, want ErrClosed", err)
	}
}

// TestCommitterCloseIdle exercises close with no flush in flight and
// concurrent waiters beforehand, over a real WAL: every waiter is acked,
// and no goroutine outlives the committer.
func TestCommitterCloseIdle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	log, err := Open(Options{Dir: t.TempDir(), Sync: SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer log.Close()
	c := newCommitter(log.Sync)

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.wait()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}

	c.close()
	waitForGoroutines(t, baseline)
}
