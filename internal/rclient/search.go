package rclient

import (
	"context"
	"fmt"

	"mwskit/internal/ticket"
	"mwskit/internal/wire"
)

// FetchTrapdoor obtains a PEKS keyword trapdoor from the PKG using the
// credentials of an earlier Retrieve. The keyword travels sealed under
// the RC–PKG session key in both directions.
func (c *Client) FetchTrapdoor(pkg *wire.Client, r *Retrieval, keyword string) ([]byte, error) {
	return c.FetchTrapdoorContext(background(), pkg, r, keyword)
}

// FetchTrapdoorContext is FetchTrapdoor under a request context: the
// current trace (if any) rides the trapdoor frame to the PKG.
func (c *Client) FetchTrapdoorContext(ctx context.Context, pkg *wire.Client, r *Retrieval, keyword string) ([]byte, error) {
	sealedKw, err := ticket.SealTrapdoorPayload(r.SessionKey, []byte(keyword))
	if err != nil {
		return nil, err
	}
	authBlob, err := ticket.SealAuthenticator(r.SessionKey, &ticket.Authenticator{RC: c.id, Timestamp: c.now()})
	if err != nil {
		return nil, err
	}
	tr, err := wire.Call(ctx, pkg, wire.OpTrapdoor,
		&wire.TrapdoorRequest{RC: c.id, TicketBlob: r.TicketBlob, Authenticator: authBlob, SealedKeyword: sealedKw})
	if err != nil {
		return nil, err
	}
	trapdoor, err := ticket.OpenTrapdoorPayload(r.SessionKey, tr.SealedTrapdoor)
	if err != nil {
		return nil, fmt.Errorf("rclient: sealed trapdoor: %w", err)
	}
	return trapdoor, nil
}

// Search runs a keyword-filtered retrieval: the MWS tests each message's
// encrypted tags against the trapdoor and returns only matches (which
// the caller then decrypts as usual with FetchKeys/Decrypt).
func (c *Client) Search(mws *wire.Client, trapdoor []byte, fromSeq uint64, limit uint32) (*Retrieval, error) {
	return c.SearchContext(background(), mws, trapdoor, fromSeq, limit)
}

// SearchContext is Search under a request context: Retrieve with a
// trapdoor, traced the same way.
func (c *Client) SearchContext(ctx context.Context, mws *wire.Client, trapdoor []byte, fromSeq uint64, limit uint32) (*Retrieval, error) {
	return c.retrieve(ctx, mws, fromSeq, limit, trapdoor)
}
