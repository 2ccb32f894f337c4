package device

import (
	"context"
	"fmt"

	"mwskit/internal/attr"
	"mwskit/internal/peks"
	"mwskit/internal/wire"
)

// PrepareTaggedDepositContext is PrepareDepositContext plus PEKS keyword
// tags: each keyword is encrypted into a searchable tag the warehouse can
// match against PKG-issued trapdoors without ever learning the keyword
// (related work [1], searchable encrypted audit logs). Tracing spans
// started under ctx cover the tag generation along with the
// encapsulation stages.
func (d *Device) PrepareTaggedDepositContext(ctx context.Context, a attr.Attribute, payload []byte, keywords []string) (*wire.DepositRequest, error) {
	if len(keywords) > wire.MaxTags {
		return nil, fmt.Errorf("device: %d keywords exceeds limit %d", len(keywords), wire.MaxTags)
	}
	req, err := d.prepareUnsigned(ctx, a, payload)
	if err != nil {
		return nil, err
	}
	for _, kw := range keywords {
		tag, err := peks.NewTag(d.params, kw, d.rand)
		if err != nil {
			return nil, fmt.Errorf("device: tag %q: %w", kw, err)
		}
		req.Tags = append(req.Tags, peks.MarshalTag(d.params, tag))
	}
	if err := d.authenticate(ctx, req); err != nil {
		return nil, err
	}
	return req, nil
}

// DepositTagged sends a tagged deposit through an open MWS connection.
func (d *Device) DepositTagged(mws *wire.Client, a attr.Attribute, payload []byte, keywords []string) (uint64, error) {
	return d.DepositTaggedContext(background(), mws, a, payload, keywords)
}

// DepositTaggedContext is DepositTagged with a caller context; when the
// context carries a trace the deposit frame is stamped with it.
func (d *Device) DepositTaggedContext(ctx context.Context, mws *wire.Client, a attr.Attribute, payload []byte, keywords []string) (uint64, error) {
	req, err := d.PrepareTaggedDepositContext(ctx, a, payload, keywords)
	if err != nil {
		return 0, err
	}
	return d.send(ctx, mws, req)
}
