package device

import (
	"context"

	"mwskit/internal/attr"
	"mwskit/internal/fanout"
	"mwskit/internal/wire"
)

// BatchItem is one message in a batch deposit.
type BatchItem struct {
	Attribute attr.Attribute
	Payload   []byte
}

// PrepareDeposits runs the client-side cryptography for a batch of
// messages across the host's cores (fanout.Each), returning the prepared
// requests in item order. The per-message work — hash-to-curve (on a
// cache miss), fixed-base rP, pairing exponentiation, sealing, MAC or
// signature — is independent across messages, so it parallelizes cleanly;
// the shared g_ID cache and nonce-epoch state are concurrency-safe.
//
// The first error stops the remaining work and is returned; ctx
// cancellation does the same.
func (d *Device) PrepareDeposits(ctx context.Context, items []BatchItem) ([]*wire.DepositRequest, error) {
	if len(items) == 0 {
		return nil, nil
	}
	reqs := make([]*wire.DepositRequest, len(items))
	err := fanout.Each(ctx, len(items), func(ctx context.Context, i int) (err error) {
		reqs[i], err = d.PrepareDepositContext(ctx, items[i].Attribute, items[i].Payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	return reqs, nil
}
