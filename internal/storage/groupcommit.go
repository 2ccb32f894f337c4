package storage

import (
	"sync"

	"mwskit/internal/wal"
)

// committer implements group commit for one shard's WAL: concurrent
// appenders share fsyncs instead of paying one each. An appender's
// record hits the OS before it calls wait (the WAL append happens under
// the shard lock, strictly before registration), and wait only returns
// after a sync that started after registration — so an acknowledged
// append is always on stable storage, while K concurrent same-shard
// deposits cost one fsync instead of K.
//
// Batching is sync-coupled: waiters that register while a sync is in
// flight are picked up together by the next one (the flush loop keeps
// draining until the queue is empty), so batches grow with how slow the
// disk is — exactly when it matters — and no delay is ever added.
type committer struct {
	fsync func() error // flushes everything appended so far

	mu       sync.Mutex
	idle     sync.Cond // signalled when flushing drops to false
	waiters  []chan error
	flushing bool
	closed   bool
}

func newCommitter(fsync func() error) *committer {
	c := &committer{fsync: fsync}
	c.idle.L = &c.mu
	return c
}

// wait blocks until the caller's already-written record is covered by an
// fsync, returning the sync error if any.
func (c *committer) wait() error {
	ch := make(chan error, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return wal.ErrClosed
	}
	c.waiters = append(c.waiters, ch)
	if !c.flushing {
		c.flushing = true
		go c.flush()
	}
	c.mu.Unlock()
	return <-ch
}

// flush drains the waiter queue in rounds: detach the accumulated
// waiters, release them after one fsync, and loop while new waiters
// piled up during the sync. `flushing` stays true for the whole drain,
// so at most one flush goroutine runs per committer and mid-sync
// arrivals batch instead of racing their own syncs.
func (c *committer) flush() {
	for {
		c.mu.Lock()
		waiters := c.waiters
		c.waiters = nil
		if len(waiters) == 0 {
			c.flushing = false
			c.idle.Broadcast()
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		err := c.fsync()
		for _, ch := range waiters {
			ch <- err
		}
	}
}

// close marks the committer closed — subsequent waits fail fast — and
// then blocks until the in-flight flush goroutine (if any) has drained
// its batch and exited. Waiting matters: the provider closes the WAL
// right after, and an undrained flush would race its final sync against
// that close (and leak the goroutine besides).
func (c *committer) close() {
	c.mu.Lock()
	c.closed = true
	for c.flushing {
		c.idle.Wait()
	}
	c.mu.Unlock()
}
