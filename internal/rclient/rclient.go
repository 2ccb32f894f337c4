// Package rclient implements the receiving-client side of the protocol
// (§V.C/D, MWS–RC and RC–PKG phases): authenticate to the Gatekeeper,
// receive encrypted messages plus a PKG token, unwrap the token with the
// client's RSA key when the PKG is first needed, present ticket +
// authenticator to the PKG to obtain the per-message private keys sI,
// and finally decapsulate and decrypt each message.
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
	"strconv"
	"sync"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/fanout"
	"mwskit/internal/ff"
	"mwskit/internal/lru"
	"mwskit/internal/obsv"
	"mwskit/internal/symenc"
	"mwskit/internal/ticket"
	"mwskit/internal/userdb"
	"mwskit/internal/wire"
)

// Client is a receiving client; only its concurrency-safe caches change after New.
type Client struct {
	id        string
	credKey   []byte
	priv      *rsa.PrivateKey
	params    *bfibe.Params
	rand      io.Reader
	now       func() time.Time
	keys      lru.Cache[keyIndex, *keyEntry]
	trapdoors lru.Cache[string, []byte]
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

// Envelope is one retrieved-but-not-yet-decrypted message.
type Envelope = wire.MessageItem

// Retrieval is the result of the MWS–RC phase: the encrypted messages and
// the PKG token, sealed to the retrieving client's RSA key, that carries
// the credentials of the RC–PKG phase. The token is unwrapped once, by
// the first FetchKeys or FetchTrapdoor that sends the PKG a frame: a
// search, or a page whose keys the client's cache holds, never pays for
// the RSA decryption.
type Retrieval struct {
	Items []Envelope

	tokenBlob []byte
	tokenOnce sync.Once
	token     *ticket.Token
	tokenErr  error
}

// credentials returns r's session key and ticket, unwrapping the token on
// first use. The first caller's context carries the token.open span, so
// it lands in the trace of the PKG call that needed it.
func (c *Client) credentials(ctx context.Context, r *Retrieval) (*ticket.Token, error) {
	r.tokenOnce.Do(func() {
		_, sp := obsv.StartSpan(ctx, "token.open")
		r.token, r.tokenErr = ticket.OpenToken(c.priv, r.tokenBlob)
		sp.SetErr(r.tokenErr)
		sp.End()
		if r.tokenErr != nil {
			r.tokenErr = fmt.Errorf("rclient: token: %w", r.tokenErr)
		}
	})
	return r.token, r.tokenErr
}

// Retrieve runs the MWS–RC phase: authenticate and fetch messages after
// the cursor, keeping the PKG token sealed until it is needed.
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
// the warehouse's spans stitch to the client's.
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
	return &Retrieval{Items: rr.Items, tokenBlob: rr.TokenBlob}, nil
}

// FetchKeys runs the RC–PKG phase for the given retrieval: a key for each
// distinct (AID, Nonce) pair, from the client's key cache or else from one
// extract request, whose items it returns (nil if none was sent).
func (c *Client) FetchKeys(pkg *wire.Client, r *Retrieval) (map[keyIndex]*bfibe.PrivateKey, []wire.ExtractItem, error) {
	return c.FetchKeysContext(background(), pkg, r)
}

// FetchKeysContext is FetchKeys under a request context: the current
// trace (if any) rides the extract frame so the PKG's spans stitch to
// the client's, and the token unwrap, if this call is the first to need
// it, lands as its own child span.
func (c *Client) FetchKeysContext(ctx context.Context, pkg *wire.Client, r *Retrieval) (map[keyIndex]*bfibe.PrivateKey, []wire.ExtractItem, error) {
	// Deduplicate (AID, nonce) pairs: every message a device deposits
	// within one nonce epoch shares a key by design (WithNonceEpoch(64)
	// gives about 48 keys per 256-message page), and each extraction
	// costs the PKG a hash-to-point and a secret scalar multiplication.
	keys := make(map[keyIndex]*bfibe.PrivateKey)
	var want []keyIndex
	var items []wire.ExtractItem
	for i := range r.Items {
		it := &r.Items[i]
		k, err := keyIndexOf(it)
		if err != nil {
			return nil, nil, err
		}
		if _, ok := keys[k]; ok {
			continue
		}
		if e, ok := c.keys.Get(k); ok {
			keys[k] = e.sk
			continue
		}
		keys[k] = nil
		want = append(want, k)
		items = append(items, wire.ExtractItem{AID: it.AID, Nonce: it.Nonce})
	}
	if len(items) == 0 {
		return keys, nil, nil
	}
	tok, err := c.credentials(ctx, r)
	if err != nil {
		return nil, nil, err
	}
	authBlob, err := ticket.SealAuthenticator(tok.SessionKey, &ticket.Authenticator{RC: c.id, Timestamp: c.now()})
	if err != nil {
		return nil, nil, err
	}
	er, err := wire.Call(ctx, pkg, wire.OpExtract,
		&wire.ExtractRequest{RC: c.id, TicketBlob: tok.TicketBlob, Authenticator: authBlob, Items: items})
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
		raw, err := ticket.OpenExtractedKey(tok.SessionKey, er.SealedKeys[i])
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
	for i, sk := range opened {
		keys[want[i]] = sk
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
	msgs := make([]*Message, 1)
	if _, err := c.openChunk([]*bfibe.Decapsulator{d}, []*Envelope{env}, msgs); err != nil {
		return nil, err
	}
	return msgs[0], nil
}

// openChunk opens envs[i] under ds[i] into out[i]: each point is decoded
// (UnmarshalEncapsulation curve-checks U), the chunk is decapsulated in
// one batch (bfibe.DecapsulateBatch), and then each AEAD is opened, its
// AAD binding U's bytes. The first failing envelope, in order, is the
// error, naming its message, and its index is returned with it.
func (c *Client) openChunk(ds []*bfibe.Decapsulator, envs []*Envelope, out []*Message) (int, error) {
	schemes := make([]symenc.Scheme, len(envs))
	encs := make([]*bfibe.Encapsulation, len(envs))
	lens := make([]int, len(envs))
	for i, env := range envs {
		// An unlinked scheme is symenc.ErrUnknownScheme: resume with fromSeq = Seq + 1.
		scheme, err := symenc.ByName(env.Scheme)
		if err == nil {
			encs[i], err = bfibe.UnmarshalEncapsulation(c.params, env.U)
		}
		if err != nil {
			return i, fmt.Errorf("rclient: message %d: %w", env.Seq, err)
		}
		schemes[i], lens[i] = scheme, scheme.KeyLen()
	}
	keys, errs := bfibe.DecapsulateBatch(ds, encs, lens)
	for i, env := range envs {
		if errs[i] != nil {
			return i, fmt.Errorf("rclient: message %d: %w", env.Seq, errs[i])
		}
		aad := wire.MessageAAD(env.DeviceID, env.Timestamp, env.Nonce, env.U)
		payload, err := schemes[i].Open(keys[i], env.Ciphertext, aad)
		if err != nil {
			return i, fmt.Errorf("rclient: message %d: %w", env.Seq, err)
		}
		out[i] = &Message{
			Seq:       env.Seq,
			DeviceID:  env.DeviceID,
			Timestamp: env.Timestamp,
			Payload:   payload,
		}
	}
	return 0, nil
}

// DecryptRetrieval decrypts every message in a retrieval with the
// extracted keys, returning them in deposit order. Every message's key is
// resolved before any pairing, so a missing key fails the page without
// one. The page is then cut in deposit order into chunks of
// ff.LaneWidth, whatever their keys, and the chunks are spread across the
// host's cores (fanout.Each). A chunk decodes its points, decapsulates
// them in one lane batch, each under its own key (bfibe.DecapsulateBatch),
// and opens each AEAD. Each key's Miller-loop lines (bfibe.Decapsulator)
// are built once and shared by its chunks, and by later pages while the
// client's key cache holds the key. A handed key other than the cached
// one is used as handed; a key is cached once a chunk holding it has
// opened, and the key of a failing message loses its identity. The first
// failure (a bad point, a forged ciphertext) stops the remaining work,
// its error names the message, and no plaintext of the page is returned.
func (c *Client) DecryptRetrieval(ctx context.Context, r *Retrieval, keys map[keyIndex]*bfibe.PrivateKey) ([]*Message, error) {
	if len(r.Items) == 0 {
		return nil, nil
	}
	_, decSp := obsv.StartSpan(ctx, "ibe.decapsulate")
	decSp.SetAttr("messages", fmt.Sprintf("%d", len(r.Items)))
	defer decSp.End()

	// Each message's entry, one per distinct key; read-only once the
	// workers start.
	entries := make(map[keyIndex]*keyEntry)
	ents := make([]*keyEntry, len(r.Items))
	for i := range r.Items {
		env := &r.Items[i]
		ki, err := keyIndexOf(env)
		if err != nil {
			return nil, err
		}
		e, ok := entries[ki]
		if !ok {
			sk, ok := keys[ki]
			if !ok {
				return nil, fmt.Errorf("rclient: missing key for message %d", env.Seq)
			}
			e, _ = c.keys.Get(ki)
			//mwslint:declassify pointer identity: the comparison reads two addresses, never a key's value
			if e == nil || e.sk != sk {
				e = &keyEntry{ki: ki, sk: sk, lines: sync.OnceValues(func() (*bfibe.Decapsulator, error) {
					return c.params.NewDecapsulator(sk)
				})}
			}
			entries[ki] = e
		}
		ents[i] = e
	}
	chunks := (len(r.Items) + ff.LaneWidth - 1) / ff.LaneWidth
	decSp.SetAttr("keys", strconv.Itoa(len(entries)))
	decSp.SetAttr("batches", strconv.Itoa(chunks))
	decSp.SetAttr("workers", strconv.Itoa(fanout.Workers(chunks)))
	decSp.SetAttr("lanes", strconv.FormatBool(c.params.Sys.Curve.F.HasLanes()))

	out := make([]*Message, len(r.Items))
	failed := make([]*keyEntry, chunks) // the key of a chunk's failing message
	err := fanout.Each(ctx, chunks, func(_ context.Context, k int) error {
		lo, hi := k*ff.LaneWidth, min(len(r.Items), (k+1)*ff.LaneWidth)
		ds := make([]*bfibe.Decapsulator, hi-lo)
		envs := make([]*Envelope, hi-lo)
		for j := range ds {
			d, err := ents[lo+j].lines()
			if err != nil {
				failed[k] = ents[lo+j]
				return err
			}
			ds[j], envs[j] = d, &r.Items[lo+j]
		}
		if j, err := c.openChunk(ds, envs, out[lo:hi]); err != nil {
			failed[k] = ents[lo+j]
			return err
		}
		for _, e := range ents[lo:hi] {
			c.keys.Put(e.ki, e, keyCacheSize)
		}
		return nil
	})
	// Evicted once every chunk has finished, so a chunk holding the same
	// key that opened meanwhile cannot put it back.
	for _, e := range failed {
		if e != nil {
			c.keys.Evict(e.ki)
		}
	}
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

// keyIndexOf is the index of an envelope's key. It is exact: a nonce that
// is not attr.NonceLen bytes is refused, never padded or cut to fit.
func keyIndexOf(env *Envelope) (keyIndex, error) {
	n, err := attr.NonceFromBytes(env.Nonce)
	if err != nil {
		return keyIndex{}, fmt.Errorf("rclient: message %d: %w", env.Seq, err)
	}
	return keyIndex{aid: env.AID, nonce: n}, nil
}

// keyCacheSize bounds the key cache: a 256-message page has at most 128
// identities that cover two or more messages; ≈ 11 MB of bf80 lines,
// plus ≈ 34 KB a key of the same lines in lane form once a chunk holding
// one of its messages has run on the lane kernel (≈ 4.4 MB).
const keyCacheSize = 128

// keyEntry is a private key and its lines, built once, outside the lock.
type keyEntry struct {
	ki    keyIndex
	sk    *bfibe.PrivateKey
	lines func() (*bfibe.Decapsulator, error)
}
