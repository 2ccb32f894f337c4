// Package rclient implements the receiving-client side of the protocol
// (§V.C/D, MWS–RC and RC–PKG phases): authenticate to the Gatekeeper,
// receive encrypted messages plus a PKG token, unwrap the token with the
// client's RSA key, present ticket + authenticator to the PKG to obtain
// the per-message private keys sI, and finally decapsulate and decrypt
// each message.
//
// Throughout, the client handles attributes only as opaque AIDs; the
// actual attribute strings stay inside the sealed ticket (§V.D).
package rclient

import (
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/fanout"
	"mwskit/internal/obsv"
	"mwskit/internal/symenc"
	"mwskit/internal/ticket"
	"mwskit/internal/userdb"
	"mwskit/internal/wire"
)

// Client is a receiving client. Immutable after construction.
type Client struct {
	id      string
	credKey []byte
	priv    *rsa.PrivateKey
	params  *bfibe.Params
	rand    io.Reader
	now     func() time.Time
}

// Option customizes a Client.
type Option func(*Client)

// WithRand overrides the entropy source.
func WithRand(r io.Reader) Option { return func(c *Client) { c.rand = r } }

// WithClock overrides the timestamp source.
func WithClock(now func() time.Time) Option { return func(c *Client) { c.now = now } }

// New builds a receiving client from its registration artifacts. The
// credential key is derived from the password exactly as the user
// database derives it at registration.
func New(id string, password []byte, priv *rsa.PrivateKey, params *bfibe.Params, opts ...Option) (*Client, error) {
	if id == "" {
		return nil, errors.New("rclient: empty identity")
	}
	if len(password) == 0 {
		return nil, errors.New("rclient: empty password")
	}
	if priv == nil {
		return nil, errors.New("rclient: nil private key")
	}
	if params == nil {
		return nil, errors.New("rclient: nil IBE parameters")
	}
	c := &Client{
		id:      id,
		credKey: userdb.CredentialKey(id, password),
		priv:    priv,
		params:  params,
		rand:    attr.RandReader,
		now:     time.Now,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// ID returns the client identity.
func (c *Client) ID() string { return c.id }

// Envelope is one retrieved-but-not-yet-decrypted message.
type Envelope = wire.MessageItem

// Retrieval is the result of the MWS–RC phase: the encrypted messages and
// the credentials needed for the RC–PKG phase.
type Retrieval struct {
	Items      []Envelope
	SessionKey []byte
	TicketBlob []byte
}

// Retrieve runs the MWS–RC phase: authenticate, fetch messages after the
// cursor, and unwrap the PKG token.
func (c *Client) Retrieve(mws *wire.Client, fromSeq uint64, limit uint32) (*Retrieval, error) {
	return c.RetrieveContext(background(), mws, fromSeq, limit)
}

// background is the shared root for the package's context-free
// convenience wrappers; cancellation-aware callers use the Context
// variants directly.
func background() context.Context {
	//mwslint:ignore ctxflow single annotated root for the context-free convenience wrappers; request paths use the Context variants
	return context.Background()
}

// RetrieveContext is Retrieve under a request context: when the context
// carries a trace span, the current trace rides the retrieve frame so
// the warehouse's spans stitch to the client's, and the token unwrap
// lands as its own child span.
func (c *Client) RetrieveContext(ctx context.Context, mws *wire.Client, fromSeq uint64, limit uint32) (*Retrieval, error) {
	return c.retrieve(ctx, mws, fromSeq, limit, nil)
}

// retrieve is the MWS–RC phase behind Retrieve and Search: a search is a
// retrieval whose request carries a trapdoor.
func (c *Client) retrieve(ctx context.Context, mws *wire.Client, fromSeq uint64, limit uint32, trapdoor []byte) (*Retrieval, error) {
	authBlob, err := ticket.SealAuthenticator(c.credKey, &ticket.Authenticator{RC: c.id, Timestamp: c.now()})
	if err != nil {
		return nil, err
	}
	rr, err := wire.Call(ctx, mws, wire.OpRetrieve,
		&wire.RetrieveRequest{RC: c.id, AuthBlob: authBlob, FromSeq: fromSeq, Limit: limit, Trapdoor: trapdoor})
	if err != nil {
		return nil, err
	}
	_, tokSp := obsv.StartSpan(ctx, "token.open")
	tok, err := ticket.OpenToken(c.priv, rr.TokenBlob)
	tokSp.SetErr(err)
	tokSp.End()
	if err != nil {
		return nil, fmt.Errorf("rclient: token: %w", err)
	}
	return &Retrieval{Items: rr.Items, SessionKey: tok.SessionKey, TicketBlob: tok.TicketBlob}, nil
}

// FetchKeys runs the RC–PKG phase for the given retrieval: one extract
// request covering the distinct (AID, Nonce) pairs, returning the private
// keys indexed identically to the request items it derives.
func (c *Client) FetchKeys(pkg *wire.Client, r *Retrieval) (map[keyIndex]*bfibe.PrivateKey, []wire.ExtractItem, error) {
	return c.FetchKeysContext(background(), pkg, r)
}

// FetchKeysContext is FetchKeys under a request context: the current
// trace (if any) rides the extract frame so the PKG's spans stitch to
// the client's.
func (c *Client) FetchKeysContext(ctx context.Context, pkg *wire.Client, r *Retrieval) (map[keyIndex]*bfibe.PrivateKey, []wire.ExtractItem, error) {
	// Deduplicate (AID, nonce) pairs: every message a device deposits
	// within one nonce epoch shares a key by design (WithNonceEpoch(64)
	// gives about 48 keys per 256-message page), and each extraction
	// costs the PKG a hash-to-point and a secret scalar multiplication.
	seen := make(map[keyIndex]int)
	var items []wire.ExtractItem
	for _, it := range r.Items {
		k := keyIndexOf(it.AID, it.Nonce)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = len(items)
		items = append(items, wire.ExtractItem{AID: it.AID, Nonce: it.Nonce})
	}
	if len(items) == 0 {
		return map[keyIndex]*bfibe.PrivateKey{}, nil, nil
	}
	authBlob, err := ticket.SealAuthenticator(r.SessionKey, &ticket.Authenticator{RC: c.id, Timestamp: c.now()})
	if err != nil {
		return nil, nil, err
	}
	er, err := wire.Call(ctx, pkg, wire.OpExtract,
		&wire.ExtractRequest{RC: c.id, TicketBlob: r.TicketBlob, Authenticator: authBlob, Items: items})
	if err != nil {
		return nil, nil, err
	}
	if len(er.SealedKeys) != len(items) {
		return nil, nil, fmt.Errorf("rclient: got %d keys for %d items", len(er.SealedKeys), len(items))
	}
	// Keys, first pairing arguments, keep their order-q check: open on every core.
	_, openSp := obsv.StartSpan(ctx, "keys.open")
	opened := make([]*bfibe.PrivateKey, len(items))
	err = fanout.Each(ctx, len(items), func(_ context.Context, i int) error {
		raw, err := ticket.OpenExtractedKey(r.SessionKey, er.SealedKeys[i])
		if err == nil {
			opened[i], err = bfibe.UnmarshalPrivateKey(c.params, raw)
		}
		return err
	})
	openSp.SetErr(err)
	openSp.End()
	if err != nil {
		return nil, nil, err
	}
	keys := make(map[keyIndex]*bfibe.PrivateKey, len(items))
	for i, sk := range opened {
		keys[keyIndexOf(items[i].AID, items[i].Nonce)] = sk
	}
	return keys, items, nil
}

// Message is a fully decrypted warehouse message.
type Message struct {
	Seq       uint64
	DeviceID  string
	Timestamp int64
	Payload   []byte
}

// Decrypt opens one envelope with its private key: decapsulate the
// session key from rP via ê(sI, rP) and open the symmetric ciphertext.
func (c *Client) Decrypt(env *Envelope, sk *bfibe.PrivateKey) (*Message, error) {
	d, err := c.params.NewDecapsulator(sk)
	if err != nil {
		return nil, err
	}
	return c.decryptWith(env, d)
}

// decryptWith opens one envelope through a prepared Decapsulator, so
// batch callers amortize the key's pairing precomputation.
// UnmarshalEncapsulation curve-checks U; the AAD binds U's bytes.
func (c *Client) decryptWith(env *Envelope, d *bfibe.Decapsulator) (*Message, error) {
	// An unlinked scheme is symenc.ErrUnknownScheme: resume with fromSeq = Seq + 1.
	scheme, err := symenc.ByName(env.Scheme)
	if err != nil {
		return nil, fmt.Errorf("rclient: message %d: %w", env.Seq, err)
	}
	enc, err := bfibe.UnmarshalEncapsulation(c.params, env.U)
	if err != nil {
		return nil, fmt.Errorf("rclient: message %d: %w", env.Seq, err)
	}
	key, err := d.Decapsulate(enc, scheme.KeyLen())
	if err != nil {
		return nil, err
	}
	aad := wire.MessageAAD(env.DeviceID, env.Timestamp, env.Nonce, env.U)
	payload, err := scheme.Open(key, env.Ciphertext, aad)
	if err != nil {
		return nil, fmt.Errorf("rclient: message %d: %w", env.Seq, err)
	}
	return &Message{
		Seq:       env.Seq,
		DeviceID:  env.DeviceID,
		Timestamp: env.Timestamp,
		Payload:   payload,
	}, nil
}

// DecryptRetrieval decrypts every message in a retrieval with the
// extracted keys, in deposit order, fanning the pairing work across the
// host's cores (fanout.Each). The pairing's Miller-loop lines are
// precomputed once per key (bfibe.Decapsulator, built on the key's first
// message) and shared by all messages under that key — the
// batch-decryption shape the multi-pairing layer exists for — so each
// message pays only its point's validation, the F_p² accumulation, the
// final exponentiation, and an AEAD open. The first failure (a missing
// key, a bad point, a forged ciphertext) stops the remaining work.
func (c *Client) DecryptRetrieval(ctx context.Context, r *Retrieval, keys map[keyIndex]*bfibe.PrivateKey) ([]*Message, error) {
	if len(r.Items) == 0 {
		return nil, nil
	}
	_, decSp := obsv.StartSpan(ctx, "ibe.decapsulate")
	decSp.SetAttr("messages", fmt.Sprintf("%d", len(r.Items)))
	defer decSp.End()

	// One Decapsulator per distinct key: every message of an (attribute,
	// nonce) group reuses its key's precomputed lines, built by whichever
	// worker first meets a message under that key. The map is read-only
	// once the workers start.
	decaps := make(map[keyIndex]func() (*bfibe.Decapsulator, error), len(keys))
	for ki, sk := range keys {
		decaps[ki] = sync.OnceValues(func() (*bfibe.Decapsulator, error) {
			return c.params.NewDecapsulator(sk)
		})
	}
	out := make([]*Message, len(r.Items))
	err := fanout.Each(ctx, len(r.Items), func(_ context.Context, i int) error {
		env := &r.Items[i]
		decap, ok := decaps[keyIndexOf(env.AID, env.Nonce)]
		if !ok {
			return fmt.Errorf("rclient: missing key for message %d", env.Seq)
		}
		d, err := decap()
		if err != nil {
			return err
		}
		out[i], err = c.decryptWith(env, d)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RetrieveAndDecrypt runs the full client pipeline: MWS retrieval, PKG
// key extraction, and parallel message decryption, returning plaintext
// messages in deposit order.
func (c *Client) RetrieveAndDecrypt(mws, pkg *wire.Client, fromSeq uint64, limit uint32) ([]*Message, error) {
	return c.RetrieveAndDecryptContext(background(), mws, pkg, fromSeq, limit)
}

// RetrieveAndDecryptContext is RetrieveAndDecrypt under a request
// context, tracing each phase when the context carries a span.
func (c *Client) RetrieveAndDecryptContext(ctx context.Context, mws, pkg *wire.Client, fromSeq uint64, limit uint32) ([]*Message, error) {
	r, err := c.RetrieveContext(ctx, mws, fromSeq, limit)
	if err != nil {
		return nil, err
	}
	if len(r.Items) == 0 {
		return nil, nil
	}
	keys, _, err := c.FetchKeysContext(ctx, pkg, r)
	if err != nil {
		return nil, err
	}
	return c.DecryptRetrieval(ctx, r, keys)
}

// keyIndex identifies a private key by (AID, nonce).
type keyIndex struct {
	aid   uint64
	nonce attr.Nonce
}

func keyIndexOf(aid uint64, nonce []byte) keyIndex {
	var n attr.Nonce
	copy(n[:], nonce)
	return keyIndex{aid: aid, nonce: n}
}
