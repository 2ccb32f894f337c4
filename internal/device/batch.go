package device

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"mwskit/internal/attr"
	"mwskit/internal/wire"
)

// BatchItem is one message in a batch deposit.
type BatchItem struct {
	Attribute attr.Attribute
	Payload   []byte
}

// BatchResult pairs a batch item's index with its warehouse-assigned
// sequence number.
type BatchResult struct {
	Index int
	Seq   uint64
}

// PrepareDeposits runs the client-side cryptography for a batch of
// messages across a GOMAXPROCS-wide worker pool, returning the prepared
// requests in item order. The per-message work — hash-to-curve (on a
// cache miss), fixed-base rP, pairing exponentiation, sealing, MAC or
// signature — is independent across messages, so it parallelizes cleanly;
// the shared g_ID cache and nonce-epoch state are concurrency-safe.
//
// The first error cancels the remaining work and is returned; ctx
// cancellation does the same.
func (d *Device) PrepareDeposits(ctx context.Context, items []BatchItem) ([]*wire.DepositRequest, error) {
	if len(items) == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := runtime.GOMAXPROCS(0)
	if workers > len(items) {
		workers = len(items)
	}
	reqs := make([]*wire.DepositRequest, len(items))
	idx := make(chan int)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err; cancel() })
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				req, err := d.PrepareDepositContext(ctx, items[i].Attribute, items[i].Payload)
				if err != nil {
					fail(err)
					return
				}
				reqs[i] = req
			}
		}()
	}
feed:
	for i := range items {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return reqs, nil
}

// DepositBatch prepares a batch in parallel and ships the requests over
// one MWS connection (the wire client serializes frames internally), in
// item order. Results carry the warehouse sequence numbers.
func (d *Device) DepositBatch(ctx context.Context, mws *wire.Client, items []BatchItem) ([]BatchResult, error) {
	if mws == nil {
		return nil, errors.New("device: nil MWS client")
	}
	reqs, err := d.PrepareDeposits(ctx, items)
	if err != nil {
		return nil, err
	}
	results := make([]BatchResult, 0, len(reqs))
	for i, req := range reqs {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		seq, err := d.send(ctx, mws, req)
		if err != nil {
			return results, err
		}
		results = append(results, BatchResult{Index: i, Seq: seq})
	}
	return results, nil
}
