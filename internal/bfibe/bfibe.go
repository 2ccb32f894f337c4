// Package bfibe implements Boneh–Franklin identity-based encryption over
// the pairing in internal/pairing in the one form the paper's protocol
// deploys (§V.D), a KEM: the pairing value K = ê(sP, rI) keys a symmetric
// cipher (DES in the prototype), with rP shipped alongside the ciphertext
// so the receiver recomputes K = ê(rP, sI) from the PKG-issued private key
// sI. BF'01's BasicIdent and FullIdent, which the paper only recaps (§IV),
// are built from this package's exported API in experiments/ (DESIGN.md
// §2, keep-or-move table).
//
// The four BF algorithms map to the package API as Setup, Extract
// (MasterKey.Extract), Encapsulate and Decapsulate.
package bfibe

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"mwskit/internal/ec"
	"mwskit/internal/kdf"
	"mwskit/internal/lru"
	"mwskit/internal/obsv"
	"mwskit/internal/pairing"
)

// identityDomain separates hash-to-curve usage for identities from other
// consumers of the curve.
const identityDomain = "mwskit/bfibe/id/v1"

// defaultGIDCacheCap bounds the g_ID cache until SetGIDCacheCap is
// called. A deployment's working set is one identity per (attribute,
// nonce epoch) per depositing device, so a few hundred entries covers a
// large fleet. Each entry is one GT element (two field elements) plus its
// identity-digest key; an identity hit gidTableUses times also holds a
// fixed-base table, ≈ 91 KB on bf80, under the same bound, so 256 hot
// identities hold ≈ 23 MB of tables at most.
const defaultGIDCacheCap = 256

// gidTableUses is the cache hit at which an identity's g_ID gets its
// fixed-base table (pairing.GTComb). On bf80 (pairing's BenchmarkGTComb,
// -cpu 1) a build costs B = 200–220 µs, and a table exponentiation
// 21–31 µs against GTExpSecret's 52–69 µs, so each later use saves
// S ≈ 36 µs and a build repays itself after B/S ≈ 6 uses (4–10 over the
// spread of those runs). Building once an identity has been hit about
// B/S times — renting until the rent paid equals the price — keeps the
// loss on an identity that goes cold right after its build within one
// build. 8, the middle of that spread, is also above the ≈ 5 deposits an
// identity gets in the benchmark set-ups, so those never build; a nonce
// epoch of 64 deposits runs its last 56 from the table.
const gidTableUses = 8

// gidHot is the state of an identity the g_ID cache has hit: its hit
// count and, from the gidTableUses-th hit on, its g_ID's table.
type gidHot struct {
	hits atomic.Int32
	comb atomic.Pointer[pairing.GTComb]
}

// Params are the public system parameters the PKG publishes after Setup:
// the pairing system (field, curve, base point P) and P_pub = sP.
//
// Params also owns the g_ID hot-path cache and the pairing lines of P_pub
// and of (h mod q)·P_pub, so it must be handled by pointer once in use;
// every constructor in this package and its callers already does.
type Params struct {
	Sys  *pairing.System
	PPub ec.Point // sP, the public master key

	// gid caches g_ID = ê(Q_ID, P_pub) per identity so repeat deposits to
	// the same attribute ‖ nonce identity skip the pairing. An identity is
	// a fixed-length digest (kdf.AttributeDigest of attribute ‖ nonce), so
	// its bytes are the key, and a GT value is immutable, so concurrent
	// encryptors share a cached one without copying. gidCap is the bound
	// SetGIDCacheCap set, nil for the default.
	gid    lru.Cache[string, pairing.GT]
	gidCap atomic.Pointer[int]

	// hot holds the identities the cache has hit, under the same bound,
	// so a miss — every deposit at a fresh nonce — touches it not at all.
	// hotMu makes the entry of a first hit once per identity, so two
	// racing hits cannot each count towards a table of their own.
	hot   lru.Cache[string, *gidHot]
	hotMu sync.Mutex

	// ppub holds the Miller lines of P_pub, the fixed argument of IBS
	// verification, and idLines those of (h mod q)·P_pub, against which
	// PairIdentity evaluates every cold g_ID. Each is built once (≈ 88 KB
	// on bf80), on first use so that Params literals keep working; the
	// constructors build idLines at once, so a first deposit pays no
	// scalar multiplication for them.
	ppubOnce sync.Once
	ppub     *pairing.G1Precomp
	idOnce   sync.Once
	idLines  *pairing.G1Precomp
}

// InvalidateIdentity drops the cached g_ID for one identity, and its
// table if it has one. Devices call it on nonce rotation: the retired
// attribute ‖ nonce digest will never be encrypted to again, so its
// pairing value is dead weight.
func (p *Params) InvalidateIdentity(id []byte) {
	p.gid.Evict(string(id))
	p.hot.Evict(string(id))
}

// SetGIDCacheCap bounds the g_ID cache (default 256 entries) and its
// tables, dropping the least recently used entries past n; n ≤ 0 disables
// caching and drops everything held, which benchmarks use to measure the
// uncached path.
func (p *Params) SetGIDCacheCap(n int) {
	p.gidCap.Store(&n)
	p.gid.Trim(n)
	p.hot.Trim(n)
}

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
	p := &Params{Sys: sys, PPub: sys.G1Comb().Mul(s)}
	p.identityLines()
	return p, &MasterKey{s: s}, nil
}

// ParamsFromMaster rebuilds public parameters from a persisted master key.
func ParamsFromMaster(sys *pairing.System, mk *MasterKey) *Params {
	p := &Params{Sys: sys, PPub: sys.G1Comb().Mul(mk.s)}
	p.identityLines()
	return p
}

// HashIdentity maps an identity string to its public point Q_ID ∈ G1
// (the BF "MapToPoint" H1).
func (p *Params) HashIdentity(id []byte) (ec.Point, error) {
	return p.Sys.Curve.HashToSubgroup(identityDomain, id)
}

// HashToScalar hashes the inputs into [1, q−1]: the IBS challenge, and H3
// of FullIdent's Fujisaki–Okamoto transform (r = H3(σ, M), experiments/).
// kdf expands the inputs to 64 bits beyond q's size and the curve reduces
// them on limbs, so a scalar derived from a secret σ is never a math/big
// value.
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
// needs order q, so the cofactor h moves onto P_pub as h mod q, and the
// hashed curve point R is evaluated against the precomputed lines of
// (h mod q)·P_pub under the plain final exponentiation,
// ê((h mod q)·P_pub, R) = ê(h·R, P_pub) to the bit
// (pairing.Pairing.G1PrecompCofactor). R is hashed from public bytes and
// P_pub and h are public; the secret of an encryption is the power r
// taken afterwards. The value is 1 exactly when h·R = ∞ (probability
// 1/q); then H1 re-hashes under its retry domain, and that rule stays in
// HashToSubgroup alone.
func (p *Params) PairIdentity(id []byte) (pairing.GT, error) {
	r, err := p.Sys.Curve.HashToCurvePoint(identityDomain, id)
	if err != nil {
		return pairing.GT{}, err
	}
	if g := p.identityLines().Pair(r); !g.IsOne() {
		return g, nil
	}
	q, err := p.HashIdentity(id)
	if err != nil {
		return pairing.GT{}, err
	}
	return p.Sys.Pair(q, p.PPub), nil
}

// PPubLines returns P_pub's pairing lines, built once per Params.
func (p *Params) PPubLines() *pairing.G1Precomp {
	p.ppubOnce.Do(func() { p.ppub = p.Sys.G1Precomp(p.PPub) })
	return p.ppub
}

// identityLines returns the pairing lines of (h mod q)·P_pub, built once
// per Params.
func (p *Params) identityLines() *pairing.G1Precomp {
	p.idOnce.Do(func() { p.idLines = p.Sys.G1PrecompCofactor(p.PPub) })
	return p.idLines
}

// gID returns g_ID = ê(Q_ID, P_pub), the value whose r-th power keys a
// ciphertext for the identity — from the cache when the identity was
// encrypted to before (one deposit per message within a nonce epoch hits
// this), computing and caching it otherwise — and, on a hit, g_ID's
// fixed-base table once the identity has one (gidComb).
func (p *Params) gID(id []byte) (pairing.GT, *pairing.GTComb, error) {
	bound := defaultGIDCacheCap
	if n := p.gidCap.Load(); n != nil {
		bound = *n
	}
	if bound > 0 {
		if g, ok := p.gid.Get(string(id)); ok {
			obsv.GIDCacheHit()
			return g, p.gidComb(id, g, bound), nil
		}
	}
	obsv.GIDCacheMiss()
	g, err := p.PairIdentity(id)
	if err != nil {
		return pairing.GT{}, nil, err
	}
	if bound > 0 {
		for range p.gid.Put(string(id), g, bound) {
			obsv.GIDCacheEvict()
		}
	}
	return g, nil, nil
}

// gidComb counts a cache hit on id and returns the table of its g_ID once
// it has one. The hit that brings the count to gidTableUses builds it;
// the hits before, and those that overtake the build, return nil and
// exponentiate by GTExpSecret's window.
func (p *Params) gidComb(id []byte, g pairing.GT, bound int) *pairing.GTComb {
	h, ok := p.hot.Get(string(id))
	if !ok {
		p.hotMu.Lock()
		if h, ok = p.hot.Get(string(id)); !ok {
			h = new(gidHot)
			p.hot.Put(string(id), h, bound)
		}
		p.hotMu.Unlock()
	}
	if t := h.comb.Load(); t != nil {
		return t
	}
	if h.hits.Add(1) != gidTableUses {
		return nil
	}
	t := p.Sys.NewGTComb(g)
	h.comb.Store(t)
	return t
}

// --- KEM (the paper's hybrid usage) ---

// Encapsulation carries the key-transport point U = rP that the depositing
// client stores next to the symmetric ciphertext. Its point is finite and
// on the curve by construction: the only makers are Encapsulate (rP with
// r ∈ [1, q−1]) and UnmarshalEncapsulation (curve check, infinity
// refused), so a holder may pair it with a private key without checking
// again. The zero value came from neither and is refused.
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
	g, comb, err := p.gID(id)
	if err != nil {
		return nil, nil, err
	}
	r, err := p.Sys.RandomScalar(rng)
	if err != nil {
		return nil, nil, err
	}
	u := p.Sys.G1Comb().Mul(r)
	// r keys the pad, so the exponentiation takes a constant-time path:
	// a hot identity's table, else the variable-base window.
	var shared pairing.GT
	if comb != nil {
		shared = comb.ExpSecret(r)
	} else {
		shared = p.Sys.GTExpSecret(g, r)
	}
	return &Encapsulation{u: u}, kdf.SessionKey(shared.Bytes(), keyLen), nil
}

// Decapsulate recomputes the symmetric key from U and the identity's
// private key: KDF(ê(d_ID, U)) = KDF(ê(Q_ID, sP)^r) by bilinearity. It is
// the one-shot form of Decapsulator, and refuses what that refuses.
func (p *Params) Decapsulate(sk *PrivateKey, enc *Encapsulation, keyLen int) ([]byte, error) {
	d, err := p.NewDecapsulator(sk)
	if err != nil {
		return nil, err
	}
	return d.Decapsulate(enc, keyLen)
}

// Decapsulator amortizes the pairing cost of one private key across many
// decapsulations: the Miller-loop line coefficients of d_ID — everything
// in ê(d_ID, ·) that does not depend on the encapsulation point — are
// computed once, so each message pays only the F_p² accumulation and the
// final exponentiation, and a batch runs up to eight of those in one
// instruction stream whatever their keys (DecapsulateBatch). Retrieval
// pages, where one identity key decrypts many messages of a nonce epoch,
// are the intended caller: rclient.DecryptRetrieval keeps one per key and
// hands each chunk of eight messages in page order to DecapsulateBatch
// with each message's key. Immutable and safe for concurrent use by the
// page's worker pool.
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
// key lines: DecapsulateBatch of one.
func (d *Decapsulator) Decapsulate(enc *Encapsulation, keyLen int) ([]byte, error) {
	keys, errs := DecapsulateBatch([]*Decapsulator{d}, []*Encapsulation{enc}, []int{keyLen})
	return keys[0], errs[0]
}

// DecapsulateBatch recomputes the symmetric key of each encapsulation,
// keyLens[i] bytes for encs[i] under ds[i]'s key, and returns them in
// order with one error slot each. The keys may differ and may repeat.
// Each encapsulation is checked on its own and relies on its maker's
// validation (see Encapsulation): a nil or zero one is refused before any
// pairing, and a pairing value of 1 is refused — for an order-q key it
// means U has no G1 part, (0, 0) or a point of order dividing h, and no
// encapsulation made it. A refused encapsulation has a nil key and its
// error, and changes no other key. The accepted points are paired
// together, each against its key's lines (pairing.PairBatch): eight to an
// instruction stream where the field has the lane kernel, so eight
// messages cost about as much as one or two of them.
func DecapsulateBatch(ds []*Decapsulator, encs []*Encapsulation, keyLens []int) ([][]byte, []error) {
	if len(ds) != len(encs) || len(keyLens) != len(encs) {
		panic("bfibe: DecapsulateBatch operand length mismatch")
	}
	keys, errs := make([][]byte, len(encs)), make([]error, len(encs))
	pres := make([]*pairing.G1Precomp, 0, len(encs))
	us := make([]ec.Point, 0, len(encs))
	idx := make([]int, 0, len(encs))
	for i, enc := range encs {
		if !enc.checked() {
			errs[i] = errors.New("bfibe: nil encapsulation")
			continue
		}
		pres, us, idx = append(pres, ds[i].pre), append(us, enc.u), append(idx, i)
	}
	shared := make([]pairing.GT, len(us))
	pairing.PairBatch(pres, us, shared)
	for k, i := range idx {
		if shared[k].IsOne() {
			errs[i] = errors.New("bfibe: encapsulation point has no order-q part")
			continue
		}
		keys[i] = kdf.SessionKey(shared[k].Bytes(), keyLens[i])
	}
	return keys, errs
}
