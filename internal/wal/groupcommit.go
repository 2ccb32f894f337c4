package wal

import "sync"

// committer implements group commit for one log: concurrent appenders
// share fsyncs instead of paying one each. An appender's record hits the
// OS before it calls wait (Append returns only after the write), and
// wait only returns after a sync that started after registration — so
// an acknowledged append is always on stable storage, while K concurrent
// appenders cost one fsync instead of K.
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
		return ErrClosed
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
// then blocks until the flush in flight (if any) has drained its batch,
// so no flush goroutine outlives the log.
func (c *committer) close() {
	c.mu.Lock()
	c.closed = true
	for c.flushing {
		c.idle.Wait()
	}
	c.mu.Unlock()
}
