// Package device implements the smart-device (depositing client) side of
// the protocol: the paper's SD component (§V.B). A Device knows its
// identity, the MAC key it shares with the MWS, the PKG's public IBE
// parameters, and a symmetric scheme; for each message it
//
//  1. takes the current epoch's nonce (fresh per message by default; see
//     WithNonceEpoch) and derives I = SHA1(A ‖ Nonce),
//  2. encapsulates a session key K = ê(sP, rI) with transport point rP,
//  3. seals the payload under K,
//  4. MACs rP ‖ C ‖ (A ‖ Nonce) ‖ ID_SD ‖ T with the shared key, and
//  5. ships the deposit frame to the MWS.
package device

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/ibs"
	"mwskit/internal/macauth"
	"mwskit/internal/obsv"
	"mwskit/internal/symenc"
	"mwskit/internal/wire"
)

// Device is a depositing client. Safe for concurrent deposits: all
// configuration is immutable after construction, and the only mutable
// state — the nonce-epoch tracker — is guarded by its own mutex.
type Device struct {
	id      string
	macKey  []byte
	signKey *bfibe.PrivateKey // non-nil selects IBS authentication
	params  *bfibe.Params
	scheme  symenc.Scheme
	rand    io.Reader
	now     func() time.Time

	// Nonce-epoch state (paper §V.D: the nonce exists to keep identities
	// fresh; reusing one across an epoch of messages trades a little
	// unlinkability for a cache-hit deposit path). epoch is how many
	// messages share a nonce — 1 means a fresh nonce per message.
	mu        sync.Mutex
	epoch     int
	nonce     attr.Nonce
	remaining int                 // deposits left before rotation
	epochIDs  map[string]struct{} // identity digests minted this epoch
}

// Option customizes a Device.
type Option func(*Device)

// WithScheme selects the symmetric scheme (default AES-128-GCM; the
// paper's prototype used DES).
func WithScheme(s symenc.Scheme) Option { return func(d *Device) { d.scheme = s } }

// WithRand overrides the entropy source.
func WithRand(r io.Reader) Option { return func(d *Device) { d.rand = r } }

// WithClock overrides the timestamp source.
func WithClock(now func() time.Time) Option { return func(d *Device) { d.now = now } }

// WithNonceEpoch makes n consecutive deposits share one nonce before the
// device rotates to a fresh one (n ≤ 1 keeps the default fresh-per-message
// behavior). Within an epoch, deposits for the same attribute reuse the
// same identity I = SHA1(A ‖ Nonce), so the IBE layer's g_ID cache turns
// the per-deposit pairing into a lookup; session keys stay fresh because
// each encapsulation still draws its own r. Rotation invalidates the
// epoch's cached identities.
func WithNonceEpoch(n int) Option { return func(d *Device) { d.epoch = n } }

// NewSigning builds a Device that authenticates by identity-based
// signature (wire.AuthModeIBS): deposits are signed under the device's
// PKG-extracted key instead of MACed with a shared key, which the device
// neither needs nor holds. The paper's §VIII sketches exactly this to drop
// per-device shared secrets.
func NewSigning(id string, signKey *bfibe.PrivateKey, params *bfibe.Params, opts ...Option) (*Device, error) {
	if signKey == nil {
		return nil, errors.New("device: nil signing key")
	}
	withKey := func(d *Device) { d.signKey = signKey }
	return New(id, nil, params, append([]Option{withKey}, opts...)...)
}

// New builds a Device from its registration artifacts.
func New(id string, macKey []byte, params *bfibe.Params, opts ...Option) (*Device, error) {
	if id == "" {
		return nil, errors.New("device: empty device ID")
	}
	if params == nil {
		return nil, errors.New("device: nil IBE parameters")
	}
	d := &Device{
		id:     id,
		macKey: macKey,
		params: params,
		scheme: symenc.Default(),
		rand:   attr.RandReader,
		now:    time.Now,
		epoch:  1,
	}
	for _, o := range opts {
		o(d)
	}
	if d.epoch < 1 {
		d.epoch = 1
	}
	if d.signKey == nil && len(d.macKey) != macauth.KeyLen {
		return nil, fmt.Errorf("device: MAC key must be %d bytes", macauth.KeyLen)
	}
	// Pay the one-time fixed-base table build at registration so it never
	// lands on a deposit.
	params.Sys.G1Comb()
	return d, nil
}

// nonceFor hands out the current epoch's nonce for one deposit, rotating
// when the epoch is spent, and records the identity minted under it so
// rotation can invalidate the IBE layer's cache entries.
func (d *Device) nonceFor(a attr.Attribute) (attr.Nonce, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.remaining <= 0 {
		if err := d.rotateLocked(); err != nil {
			return attr.Nonce{}, err
		}
	}
	d.remaining--
	if d.epochIDs == nil {
		d.epochIDs = make(map[string]struct{})
	}
	d.epochIDs[string(attr.Identity(a, d.nonce))] = struct{}{}
	return d.nonce, nil
}

// rotateLocked draws a fresh nonce, retires the outgoing epoch's cached
// identities, and resets the epoch budget. Caller holds d.mu.
func (d *Device) rotateLocked() error {
	n, err := attr.NewNonce(d.rand)
	if err != nil {
		return err
	}
	for id := range d.epochIDs {
		d.params.InvalidateIdentity([]byte(id))
	}
	d.epochIDs = nil
	d.nonce = n
	d.remaining = d.epoch
	return nil
}

// ID returns the device identity.
func (d *Device) ID() string { return d.id }

// PrepareDeposit performs the full client-side cryptography for one
// message, returning the wire request ready to send. Exposed separately
// from Deposit so benchmarks and offline pipelines can exercise the
// cryptographic path without a network.
func (d *Device) PrepareDeposit(a attr.Attribute, payload []byte) (*wire.DepositRequest, error) {
	return d.PrepareDepositContext(background(), a, payload)
}

// background is the shared root for the package's context-free
// convenience wrappers; cancellation-aware callers use the Context
// variants directly.
func background() context.Context {
	//mwslint:ignore ctxflow single annotated root for the context-free convenience wrappers; request paths use the Context variants
	return context.Background()
}

// PrepareDepositContext is PrepareDeposit under a request context: when
// the context carries a trace span, each cryptographic stage (IBE
// encapsulation, symmetric seal, authentication) lands as its own child
// span.
func (d *Device) PrepareDepositContext(ctx context.Context, a attr.Attribute, payload []byte) (*wire.DepositRequest, error) {
	req, err := d.prepareUnsigned(ctx, a, payload)
	if err != nil {
		return nil, err
	}
	if err := d.authenticate(ctx, req); err != nil {
		return nil, err
	}
	return req, nil
}

// prepareUnsigned builds the deposit envelope without its authenticator,
// so variants (tagged deposits) can extend the request before signing.
func (d *Device) prepareUnsigned(ctx context.Context, a attr.Attribute, payload []byte) (*wire.DepositRequest, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	nonce, err := d.nonceFor(a)
	if err != nil {
		return nil, err
	}
	identity := attr.Identity(a, nonce)
	_, encSp := obsv.StartSpan(ctx, "ibe.encapsulate")
	enc, key, err := d.params.Encapsulate(identity, d.scheme.KeyLen(), d.rand)
	encSp.SetErr(err)
	encSp.End()
	if err != nil {
		return nil, fmt.Errorf("device: encapsulate: %w", err)
	}
	u := bfibe.MarshalEncapsulation(d.params, enc)
	ts := d.now().Unix()
	aad := wire.MessageAAD(d.id, ts, nonce[:], u)
	_, sealSp := obsv.StartSpan(ctx, "symenc.seal")
	ct, err := d.scheme.Seal(key, payload, aad)
	sealSp.SetErr(err)
	sealSp.End()
	if err != nil {
		return nil, fmt.Errorf("device: seal: %w", err)
	}
	req := &wire.DepositRequest{
		DeviceID:   d.id,
		Timestamp:  ts,
		Attribute:  string(a),
		Nonce:      nonce[:],
		U:          u,
		Ciphertext: ct,
		Scheme:     d.scheme.Name(),
	}
	return req, nil
}

// authenticate attaches the deposit authenticator (IBS signature or MAC).
func (d *Device) authenticate(ctx context.Context, req *wire.DepositRequest) error {
	_, sp := obsv.StartSpan(ctx, "auth")
	defer sp.End()
	if d.signKey != nil {
		req.AuthMode = wire.AuthModeIBS
		sig, err := ibs.Sign(d.params, d.signKey, req.AuthBytes(), d.rand)
		if err != nil {
			sp.SetErr(err)
			return fmt.Errorf("device: sign: %w", err)
		}
		req.MAC = sig.Marshal(d.params)
		return nil
	}
	req.AuthMode = wire.AuthModeMAC
	req.MAC = macauth.Compute(d.macKey, req.MACParts()...)
	return nil
}

// Deposit prepares and sends one message through an open MWS connection,
// returning the warehouse-assigned sequence number.
func (d *Device) Deposit(mws *wire.Client, a attr.Attribute, payload []byte) (uint64, error) {
	return d.DepositContext(background(), mws, a, payload)
}

// DepositContext is Deposit under a request context: the current trace
// (if any) rides the deposit frame so the server's spans stitch to the
// client's.
func (d *Device) DepositContext(ctx context.Context, mws *wire.Client, a attr.Attribute, payload []byte) (uint64, error) {
	req, err := d.PrepareDepositContext(ctx, a, payload)
	if err != nil {
		return 0, err
	}
	return d.send(ctx, mws, req)
}

// send ships a prepared deposit and returns the acknowledged sequence
// number.
func (d *Device) send(ctx context.Context, mws *wire.Client, req *wire.DepositRequest) (uint64, error) {
	resp, err := wire.Call(ctx, mws, wire.OpDeposit, req)
	if err != nil {
		return 0, err
	}
	return resp.Seq, nil
}
