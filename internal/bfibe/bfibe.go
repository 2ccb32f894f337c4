// Package bfibe implements Boneh–Franklin identity-based encryption over
// the pairing in internal/pairing, in the three forms the paper relies on:
//
//   - BasicIdent — the CPA-secure scheme of BF'01 §4.1, exactly the
//     C = (rP, M ⊕ H2(ê(Q_ID, sP)^r)) construction the paper's §IV recaps.
//   - FullIdent — the CCA-secure Fujisaki–Okamoto strengthening (BF'01 §4.2).
//   - KEM — the hybrid usage the paper's protocol actually deploys (§V.D):
//     the pairing value K = ê(sP, rI) keys a symmetric cipher (DES in the
//     prototype), with rP shipped alongside the ciphertext so the receiver
//     recomputes K = ê(rP, sI) from the PKG-issued private key sI.
//
// The four BF algorithms map to the package API as Setup, Extract
// (MasterKey.Extract), Encrypt*/Encapsulate, Decrypt*/Decapsulate.
package bfibe

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"mwskit/internal/ec"
	"mwskit/internal/kdf"
	"mwskit/internal/pairing"
)

// identityDomain separates hash-to-curve usage for identities from other
// consumers of the curve.
const identityDomain = "mwskit/bfibe/id/v1"

// sigmaLen is the length of the Fujisaki–Okamoto seed σ in FullIdent.
const sigmaLen = 32

// Params are the public system parameters the PKG publishes after Setup:
// the pairing system (field, curve, base point P) and P_pub = sP.
//
// Params also owns the g_ID hot-path cache (gidcache.go) and P_pub's
// pairing lines, so it must be handled by pointer once in use; every
// constructor in this package and its callers already does.
type Params struct {
	Sys  *pairing.System
	PPub ec.Point // sP, the public master key

	// gid caches g_ID = ê(Q_ID, P_pub) per identity digest so repeat
	// deposits to the same attribute ‖ nonce identity skip the pairing.
	gid gidCache

	// ppub holds the Miller lines of P_pub, the fixed argument of every
	// g_ID, built by the first PairIdentity (≈ 130 KB on bf80) so Params
	// literals keep working.
	ppubOnce sync.Once
	ppub     *pairing.G1Precomp
}

// InvalidateIdentity drops the cached g_ID for one identity. Devices call
// it on nonce rotation: the retired attribute ‖ nonce digest will never
// be encrypted to again, so its pairing value is dead weight.
func (p *Params) InvalidateIdentity(id []byte) { p.gid.invalidate(id) }

// FlushGIDCache empties the g_ID cache.
func (p *Params) FlushGIDCache() { p.gid.flush() }

// GIDCacheLen reports the number of cached g_ID values.
func (p *Params) GIDCacheLen() int { return p.gid.size() }

// SetGIDCacheCap bounds the g_ID cache (default 256 entries); n ≤ 0
// disables caching entirely, which benchmarks use to measure the
// uncached path.
func (p *Params) SetGIDCacheCap(n int) { p.gid.setCap(n) }

// MasterKey is the PKG's master secret s ∈ [1, q−1]. It never leaves the
// PKG; Setup and UnmarshalMasterKey are its only makers.
type MasterKey struct {
	s ec.Scalar
}

// PrivateKey is an extracted identity key d_ID = s·Q_ID.
type PrivateKey struct {
	ID []byte   // the identity string the key decrypts for
	D  ec.Point // s·H1(ID)
}

// Setup runs the BF Setup algorithm: draw the master secret s ← Z_q* and
// publish P_pub = sP. It is executed once by the PKG.
func Setup(sys *pairing.System, rng io.Reader) (*Params, *MasterKey, error) {
	if sys == nil {
		return nil, nil, errors.New("bfibe: nil pairing system")
	}
	s, err := sys.RandomScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("bfibe: setup: %w", err)
	}
	pub := sys.G1Comb().Mul(s)
	return &Params{Sys: sys, PPub: pub}, &MasterKey{s: s}, nil
}

// ParamsFromMaster rebuilds public parameters from a persisted master key.
func ParamsFromMaster(sys *pairing.System, mk *MasterKey) *Params {
	return &Params{Sys: sys, PPub: sys.G1Comb().Mul(mk.s)}
}

// HashIdentity maps an identity string to its public point Q_ID ∈ G1
// (the BF "MapToPoint" H1).
func (p *Params) HashIdentity(id []byte) (ec.Point, error) {
	return p.Sys.Curve.HashToSubgroup(identityDomain, id)
}

// HashToScalar hashes the inputs into [1, q−1]: H3 of the Fujisaki–Okamoto
// transform (r = H3(σ, M)) and the IBS challenge. kdf expands the inputs
// to 64 bits beyond q's size and the curve reduces them on limbs, so a
// scalar derived from a secret σ is never a math/big value.
func (p *Params) HashToScalar(domain string, parts ...[]byte) ec.Scalar {
	c := p.Sys.Curve
	return c.ScalarFromWide(kdf.ScalarSeed(domain, c.ScalarLen()+8, parts...))
}

// Extract runs the BF Extract algorithm at the PKG: d_ID = s·Q_ID.
func (m *MasterKey) Extract(p *Params, id []byte) (*PrivateKey, error) {
	q, err := p.HashIdentity(id)
	if err != nil {
		return nil, fmt.Errorf("bfibe: extract: %w", err)
	}
	d := p.Sys.Curve.ScalarMultSecret(q, m.s)
	idCopy := make([]byte, len(id))
	copy(idCopy, id)
	return &PrivateKey{ID: idCopy, D: d}, nil
}

// PairIdentity returns ê(H1(id), P_pub), uncached: the g_ID of an
// encryption identity, or the same value for a PEKS keyword identity,
// which has no business in the g_ID cache. H1's cofactor is not cleared
// on the curve: the pairing is symmetric and only its first argument
// needs order q, so the hashed curve point R is evaluated against P_pub's
// precomputed lines and the cofactor h goes through the final
// exponentiation, ê(P_pub, R)^h = ê(h·R, P_pub) to the bit
// (pairing.G1Precomp.PairCofactor). R is hashed from public bytes and
// P_pub and h are public; the secret of an encryption is the power r
// taken afterwards. The value is 1 exactly when h·R = ∞ (probability
// 1/q); then H1 re-hashes under its retry domain, and that rule stays in
// HashToSubgroup alone.
func (p *Params) PairIdentity(id []byte) (pairing.GT, error) {
	r, err := p.Sys.Curve.HashToCurvePoint(identityDomain, id)
	if err != nil {
		return pairing.GT{}, err
	}
	p.ppubOnce.Do(func() { p.ppub = p.Sys.G1Precomp(p.PPub) })
	if g := p.ppub.PairCofactor(r); !g.IsOne() {
		return g, nil
	}
	q, err := p.HashIdentity(id)
	if err != nil {
		return pairing.GT{}, err
	}
	return p.Sys.Pair(q, p.PPub), nil
}

// gID returns g_ID = ê(Q_ID, P_pub), the value whose r-th power keys a
// ciphertext for the identity — from the cache when the identity was
// encrypted to before (one deposit per message within a nonce epoch hits
// this), computing and caching it otherwise.
func (p *Params) gID(id []byte) (pairing.GT, error) {
	if g, ok := p.gid.get(id); ok {
		return g, nil
	}
	g, err := p.PairIdentity(id)
	if err != nil {
		return pairing.GT{}, err
	}
	p.gid.put(id, g)
	return g, nil
}

// --- KEM (the paper's hybrid usage) ---

// Encapsulation carries the key-transport point U = rP that the depositing
// client stores next to the symmetric ciphertext. It is a validated point
// by construction: the only makers are Encapsulate (rP with r ∈ [1, q−1])
// and UnmarshalEncapsulation (curve check, order-q check, infinity
// refused), so a holder of one may pair it with a private key without
// checking again. The zero value came from neither and is refused.
type Encapsulation struct {
	u ec.Point
}

// checked reports whether e came from one of the two makers; both only
// produce finite points, whose coordinates know their field.
func (e *Encapsulation) checked() bool { return e != nil && e.u.X.Field() != nil }

// Encapsulate derives a fresh symmetric key of keyLen bytes for the given
// identity: pick r, output U = rP and key = KDF(ê(Q_ID, sP)^r). This is
// the paper's K = ê(sP, rI) with I = Q_ID (identity point hashed from
// the attribute digest).
func (p *Params) Encapsulate(id []byte, keyLen int, rng io.Reader) (*Encapsulation, []byte, error) {
	g, err := p.gID(id)
	if err != nil {
		return nil, nil, err
	}
	r, err := p.Sys.RandomScalar(rng)
	if err != nil {
		return nil, nil, err
	}
	u := p.Sys.G1Comb().Mul(r)
	// r keys the pad, so the exponentiation takes the constant-time path.
	shared := p.Sys.GTExpSecret(g, r)
	return &Encapsulation{u: u}, kdf.SessionKey(shared.Bytes(), keyLen), nil
}

// Decapsulate recomputes the symmetric key from U and the identity's
// private key: KDF(ê(d_ID, U)) = KDF(ê(Q_ID, sP)^r) by bilinearity. U was
// validated when enc was made (see Encapsulation); nothing is re-checked.
func (p *Params) Decapsulate(sk *PrivateKey, enc *Encapsulation, keyLen int) ([]byte, error) {
	if sk == nil || !enc.checked() {
		return nil, errors.New("bfibe: nil key or encapsulation")
	}
	shared := p.Sys.Pair(sk.D, enc.u)
	return kdf.SessionKey(shared.Bytes(), keyLen), nil
}

// Decapsulator amortizes the pairing cost of one private key across many
// decapsulations: the Miller-loop line coefficients of d_ID — everything
// in ê(d_ID, ·) that does not depend on the encapsulation point — are
// computed once, so each Decapsulate pays only the F_p² accumulation and
// the final exponentiation. Retrieval batches, where one identity key
// decrypts many messages of a nonce epoch, are the intended caller
// (rclient.DecryptRetrieval builds one per key in the batch). Immutable
// and safe for concurrent use by the batch worker pool.
type Decapsulator struct {
	pre *pairing.G1Precomp
}

// NewDecapsulator precomputes the pairing lines for one private key.
func (p *Params) NewDecapsulator(sk *PrivateKey) (*Decapsulator, error) {
	if sk == nil {
		return nil, errors.New("bfibe: nil private key")
	}
	return &Decapsulator{pre: p.Sys.G1Precomp(sk.D)}, nil
}

// Decapsulate recomputes the symmetric key from U using the precomputed
// key lines, relying like Params.Decapsulate on enc's validation.
func (d *Decapsulator) Decapsulate(enc *Encapsulation, keyLen int) ([]byte, error) {
	if !enc.checked() {
		return nil, errors.New("bfibe: nil encapsulation")
	}
	shared := d.pre.Pair(enc.u)
	return kdf.SessionKey(shared.Bytes(), keyLen), nil
}

// --- BasicIdent ---

// CiphertextBasic is a BasicIdent ciphertext (U, V) = (rP, M ⊕ H2(g_ID^r)).
type CiphertextBasic struct {
	U ec.Point
	V []byte
}

// EncryptBasic encrypts msg for id under the CPA-secure BasicIdent scheme.
func (p *Params) EncryptBasic(id, msg []byte, rng io.Reader) (*CiphertextBasic, error) {
	g, err := p.gID(id)
	if err != nil {
		return nil, err
	}
	r, err := p.Sys.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	u := p.Sys.G1Comb().Mul(r)
	pad := p.Sys.GTExpSecret(g, r)
	return &CiphertextBasic{
		U: u,
		V: kdf.Mask("mwskit/bfibe/h2", pad.Bytes(), msg),
	}, nil
}

// DecryptBasic inverts EncryptBasic with the identity's private key:
// M = V ⊕ H2(ê(d_ID, U)).
func (p *Params) DecryptBasic(sk *PrivateKey, ct *CiphertextBasic) ([]byte, error) {
	if sk == nil || ct == nil {
		return nil, errors.New("bfibe: nil key or ciphertext")
	}
	if ct.U.Inf || !p.Sys.Curve.IsOnCurve(ct.U) {
		return nil, errors.New("bfibe: ciphertext point off curve")
	}
	if !p.Sys.Curve.ScalarBaseOrderCheck(ct.U) {
		return nil, errors.New("bfibe: ciphertext point not in the order-q subgroup")
	}
	pad := p.Sys.Pair(sk.D, ct.U)
	return kdf.Mask("mwskit/bfibe/h2", pad.Bytes(), ct.V), nil
}

// --- FullIdent ---

// CiphertextFull is a FullIdent ciphertext
// (U, V, W) = (rP, σ ⊕ H2(g_ID^r), M ⊕ H4(σ)) with r = H3(σ, M).
type CiphertextFull struct {
	U ec.Point
	V []byte // masked σ, fixed sigmaLen bytes
	W []byte // masked message
}

// ErrDecrypt is returned when a FullIdent ciphertext fails its validity
// check. The error is deliberately unspecific: distinguishing failure
// causes would hand a chosen-ciphertext adversary an oracle.
var ErrDecrypt = errors.New("bfibe: decryption failed")

// EncryptFull encrypts msg for id under the CCA-secure FullIdent scheme
// (Fujisaki–Okamoto transform over BasicIdent).
func (p *Params) EncryptFull(id, msg []byte, rng io.Reader) (*CiphertextFull, error) {
	g, err := p.gID(id)
	if err != nil {
		return nil, err
	}
	sigma := make([]byte, sigmaLen)
	if _, err := io.ReadFull(rng, sigma); err != nil {
		return nil, fmt.Errorf("bfibe: sigma: %w", err)
	}
	// r is secret (it determines the pad), so even this hash-derived
	// scalar takes the constant-schedule fixed-base path.
	r := p.HashToScalar("mwskit/bfibe/h3", sigma, msg)
	u := p.Sys.G1Comb().Mul(r)
	pad := p.Sys.GTExpSecret(g, r)
	return &CiphertextFull{
		U: u,
		V: kdf.Mask("mwskit/bfibe/h2", pad.Bytes(), sigma),
		W: kdf.Mask("mwskit/bfibe/h4", sigma, msg),
	}, nil
}

// DecryptFull inverts EncryptFull, rejecting any ciphertext whose
// re-derived randomness does not reproduce U (the FO validity check).
func (p *Params) DecryptFull(sk *PrivateKey, ct *CiphertextFull) ([]byte, error) {
	if sk == nil || ct == nil {
		return nil, ErrDecrypt
	}
	if ct.U.Inf || !p.Sys.Curve.IsOnCurve(ct.U) || len(ct.V) != sigmaLen {
		return nil, ErrDecrypt
	}
	if !p.Sys.Curve.ScalarBaseOrderCheck(ct.U) {
		return nil, ErrDecrypt
	}
	pad := p.Sys.Pair(sk.D, ct.U)
	sigma := kdf.Mask("mwskit/bfibe/h2", pad.Bytes(), ct.V)
	msg := kdf.Mask("mwskit/bfibe/h4", sigma, ct.W)
	r := p.HashToScalar("mwskit/bfibe/h3", sigma, msg)
	uCheck := p.Sys.G1Comb().Mul(r)
	if !uCheck.Equal(ct.U) {
		return nil, ErrDecrypt
	}
	return msg, nil
}
