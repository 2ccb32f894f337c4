package rclient

import (
	"bytes"
	"context"
	"fmt"

	"mwskit/internal/ticket"
	"mwskit/internal/wire"
)

// trapdoorCacheSize bounds the trapdoor cache: a trapdoor is one point
// (129 bytes on bf80), so a full cache is ≈ 33 KB and its keywords.
const trapdoorCacheSize = 256

// FetchTrapdoor obtains a PEKS keyword trapdoor from the PKG using the
// credentials of an earlier Retrieve. The keyword travels sealed under
// the RC–PKG session key in both directions. T_W is deterministic, so a
// keyword whose trapdoor the client holds, opened from an earlier reply,
// is answered from its bounded trapdoor cache: no PKG frame, no token
// unwrap. The returned bytes are the caller's own.
func (c *Client) FetchTrapdoor(pkg *wire.Client, r *Retrieval, keyword string) ([]byte, error) {
	return c.FetchTrapdoorContext(background(), pkg, r, keyword)
}

// FetchTrapdoorContext is FetchTrapdoor under a request context: the
// current trace (if any) rides the trapdoor frame to the PKG, and the
// token unwrap, if this call is the first to need it, lands as its own
// child span.
func (c *Client) FetchTrapdoorContext(ctx context.Context, pkg *wire.Client, r *Retrieval, keyword string) ([]byte, error) {
	if td, ok := c.trapdoors.get(keyword); ok {
		return bytes.Clone(td), nil
	}
	tok, err := c.credentials(ctx, r)
	if err != nil {
		return nil, err
	}
	sealedKw, err := ticket.SealTrapdoorPayload(tok.SessionKey, []byte(keyword))
	if err != nil {
		return nil, err
	}
	authBlob, err := ticket.SealAuthenticator(tok.SessionKey, &ticket.Authenticator{RC: c.id, Timestamp: c.now()})
	if err != nil {
		return nil, err
	}
	tr, err := wire.Call(ctx, pkg, wire.OpTrapdoor,
		&wire.TrapdoorRequest{RC: c.id, TicketBlob: tok.TicketBlob, Authenticator: authBlob, SealedKeyword: sealedKw})
	if err != nil {
		return nil, err
	}
	trapdoor, err := ticket.OpenTrapdoorPayload(tok.SessionKey, tr.SealedTrapdoor)
	if err != nil {
		return nil, fmt.Errorf("rclient: sealed trapdoor: %w", err)
	}
	c.trapdoors.put(keyword, trapdoor, trapdoorCacheSize)
	return bytes.Clone(trapdoor), nil
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
