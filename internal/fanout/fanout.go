// Package fanout runs the independent items of one request across the
// host's cores: the tree's one worker pool, under the PKG's extraction,
// the warehouse's keyword filter, the receiving client's page decryption
// and the device's batch preparation. Standard library only.
package fanout

import (
	"context"
	"runtime"
	"sync"
)

// Workers is the number of goroutines Each runs n items on: GOMAXPROCS,
// capped at n. Callers report it on their spans.
func Workers(n int) int { return min(runtime.GOMAXPROCS(0), n) }

// Each calls fn(ctx, i) for every i in [0, n) on Workers(n) goroutines,
// the caller's among them, and returns when every call it started has
// returned. Indices are claimed in increasing order. Once a call has
// failed, or ctx is done, no further index is claimed; calls already
// claimed run to completion. The result is the error of the lowest
// failing index, a cancellation counting as the failure of the first
// index left unclaimed: because claims go in order, that is exactly what
// the sequential loop — check ctx, call fn, stop at the first error —
// returns, and with one worker Each is that loop. A panic in fn stops
// the claims too and is raised again on the caller's goroutine, where a
// server's router recovers it. fn must be safe to call from
// several goroutines at once.
func Each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	var (
		mu       sync.Mutex
		next     int
		lowest   = n // the lowest failing index so far; n while none has failed
		first    error
		panicked any
	)
	fail := func(i int, err error) { // mu held
		if i < lowest {
			lowest, first = i, err
		}
	}
	work := func() {
		defer func() {
			if p := recover(); p != nil {
				mu.Lock()
				panicked, lowest = p, -1
				mu.Unlock()
			}
		}()
		for {
			done := ctx.Err()
			mu.Lock()
			if next == n || lowest < n {
				mu.Unlock()
				return
			}
			if done != nil {
				fail(next, done)
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()
			if err := fn(ctx, i); err != nil {
				mu.Lock()
				fail(i, err)
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for range Workers(n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return first
}
