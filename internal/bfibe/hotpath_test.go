package bfibe

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
	"mwskit/internal/obsv"
	"mwskit/internal/pairing"
)

// freshParams builds an isolated Params so cache-mutating tests cannot
// interfere with the shared testSetup instance.
func freshParams(t *testing.T) (*Params, *MasterKey) {
	t.Helper()
	sys := pairing.ParamsTest.MustSystem()
	p, mk, err := Setup(sys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return p, mk
}

// offSubgroupU finds an on-curve point outside the order-q subgroup on
// the test curve. The cofactor is large, so the first on-curve point hit
// by scanning small x values is overwhelmingly likely to be off-subgroup.
func offSubgroupU(t *testing.T, c *ec.Curve) ec.Point {
	t.Helper()
	for x := int64(1); x < 10000; x++ {
		xe := c.F.FromInt64(x)
		rhs := xe.Square().Mul(xe).Add(xe)
		y, ok := rhs.Sqrt()
		if !ok || y.IsZero() {
			continue
		}
		pt, err := c.NewPoint(xe, y)
		if err != nil {
			continue
		}
		if !c.ScalarBaseOrderCheck(pt) {
			return pt
		}
	}
	t.Fatal("no off-subgroup point found on test curve")
	return ec.Point{}
}

// TestDecapsulationRejectsOffSubgroupPoint seeds every decryption path
// with an on-curve point outside G1 and demands rejection: such a point
// pairs into a small subgroup and would probe the private key (the
// invalid-point attack). For the KEM the rejection lives in the decoder,
// the only way bytes become an *Encapsulation; the decapsulation paths
// refuse what no maker produced (nil, the zero value).
func TestDecapsulationRejectsOffSubgroupPoint(t *testing.T) {
	p, mk := testSetup(t)
	sk, err := mk.Extract(p, []byte("victim"))
	if err != nil {
		t.Fatal(err)
	}
	bad := offSubgroupU(t, p.Sys.Curve)

	for what, b := range map[string][]byte{
		"an off-subgroup point": p.Sys.Curve.Bytes(bad),
		"the identity":          p.Sys.Curve.Bytes(p.Sys.Curve.Infinity()),
	} {
		if _, err := UnmarshalEncapsulation(p, b); err == nil {
			t.Errorf("UnmarshalEncapsulation accepted %s", what)
		}
	}
	dec, err := p.NewDecapsulator(sk)
	if err != nil {
		t.Fatal(err)
	}
	for what, enc := range map[string]*Encapsulation{"nil": nil, "the zero value": {}} {
		if _, err := p.Decapsulate(sk, enc, 16); err == nil {
			t.Errorf("Decapsulate accepted %s", what)
		}
		if _, err := dec.Decapsulate(enc, 16); err == nil {
			t.Errorf("Decapsulator accepted %s", what)
		}
	}
	if _, err := p.DecryptBasic(sk, &CiphertextBasic{U: bad, V: []byte("xx")}); err == nil {
		t.Error("DecryptBasic accepted an off-subgroup U")
	}
	ctf := &CiphertextFull{U: bad, V: make([]byte, sigmaLen), W: []byte("yy")}
	if _, err := p.DecryptFull(sk, ctf); err == nil {
		t.Error("DecryptFull accepted an off-subgroup U")
	}
	if _, err := UnmarshalPrivateKey(p, MarshalPrivateKey(p, &PrivateKey{ID: []byte("x"), D: bad})); err == nil {
		t.Error("UnmarshalPrivateKey accepted an off-subgroup point")
	}
}

// TestGIDCacheHitCorrectness proves a cache hit yields the same working
// keys as a cold encapsulation: encapsulate twice to one identity and
// decapsulate both.
func TestGIDCacheHitCorrectness(t *testing.T) {
	p, mk := freshParams(t)
	id := []byte("ELECTRIC-APT-SV-CA||nonce-7")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}

	if n := p.GIDCacheLen(); n != 0 {
		t.Fatalf("fresh params cache len = %d", n)
	}
	enc1, key1, err := p.Encapsulate(id, 24, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.GIDCacheLen(); n != 1 {
		t.Fatalf("after first encapsulation cache len = %d, want 1", n)
	}
	enc2, key2, err := p.Encapsulate(id, 24, rand.Reader) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	if n := p.GIDCacheLen(); n != 1 {
		t.Fatalf("after cached encapsulation cache len = %d, want 1", n)
	}
	if bytes.Equal(key1, key2) {
		t.Fatal("two encapsulations derived the same session key")
	}
	for i, pair := range []struct {
		enc *Encapsulation
		key []byte
	}{{enc1, key1}, {enc2, key2}} {
		got, err := p.Decapsulate(sk, pair.enc, 24)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pair.key) {
			t.Fatalf("encapsulation %d: decapsulated key mismatch", i)
		}
	}
}

// TestGIDCacheBoundAndInvalidation covers the LRU bound, per-identity
// invalidation, full flush, and the cache-disabled mode.
func TestGIDCacheBoundAndInvalidation(t *testing.T) {
	p, _ := freshParams(t)
	p.SetGIDCacheCap(2)
	ids := [][]byte{[]byte("id-a"), []byte("id-b"), []byte("id-c")}
	for _, id := range ids {
		if _, _, err := p.Encapsulate(id, 16, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.GIDCacheLen(); n != 2 {
		t.Fatalf("cache len = %d, want LRU bound 2", n)
	}

	// id-a was evicted (least recent); invalidating a live entry shrinks.
	p.InvalidateIdentity([]byte("id-c"))
	if n := p.GIDCacheLen(); n != 1 {
		t.Fatalf("after invalidate cache len = %d, want 1", n)
	}
	// Invalidating an absent identity is a no-op.
	p.InvalidateIdentity([]byte("never-seen"))
	if n := p.GIDCacheLen(); n != 1 {
		t.Fatalf("after no-op invalidate cache len = %d, want 1", n)
	}

	p.FlushGIDCache()
	if n := p.GIDCacheLen(); n != 0 {
		t.Fatalf("after flush cache len = %d, want 0", n)
	}

	// Cap 0 disables caching but encryption keeps working.
	p.SetGIDCacheCap(0)
	if _, _, err := p.Encapsulate(ids[0], 16, rand.Reader); err != nil {
		t.Fatal(err)
	}
	if n := p.GIDCacheLen(); n != 0 {
		t.Fatalf("disabled cache holds %d entries", n)
	}
}

// TestGIDCacheConcurrent hammers the cache under -race: encryptors over a
// small identity working set interleaved with rotations (invalidate),
// flushes, capacity changes, and size readers.
func TestGIDCacheConcurrent(t *testing.T) {
	p, mk := freshParams(t)
	ids := make([][]byte, 8)
	for i := range ids {
		ids[i] = []byte(fmt.Sprintf("meter-%d||nonce", i))
	}
	sk, err := mk.Extract(p, ids[0])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := ids[(seed+i)%len(ids)]
				enc, key, err := p.Encapsulate(id, 16, rand.Reader)
				if err != nil {
					t.Error(err)
					return
				}
				if bytes.Equal(id, ids[0]) {
					got, err := p.Decapsulate(sk, enc, 16)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(got, key) {
						t.Error("concurrent decapsulation key mismatch")
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			p.InvalidateIdentity(ids[i%len(ids)])
			if i%10 == 0 {
				p.FlushGIDCache()
			}
			if i%17 == 0 {
				p.SetGIDCacheCap(4 + i%5)
			}
			_ = p.GIDCacheLen()
		}
	}()
	wg.Wait()
}

// opCounts runs f and returns how many pairings and public scalar
// multiplications it performed. The counters are process-wide, so callers
// must not run in parallel with other crypto.
func opCounts(f func()) (pairings, publicMults uint64) {
	before := obsv.CounterMap()
	f()
	after := obsv.CounterMap()
	return after["pairing_ops"] - before["pairing_ops"], after["scalar_mult_public"] - before["scalar_mult_public"]
}

// TestEncapsulateOpCounts pins the counts BENCH_PR19.json quotes beside
// its timings: a cold Encapsulate is one pairing and no public scalar
// multiplication (the cofactor goes through the pairing, not over the
// curve), a warm one neither.
func TestEncapsulateOpCounts(t *testing.T) {
	p, _ := freshParams(t)
	id := []byte("ELECTRIC-APT-SV-CA||nonce-counts")
	encapsulate := func() {
		if _, _, err := p.Encapsulate(id, 16, rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	if pairings, mults := opCounts(encapsulate); pairings != 1 || mults != 0 {
		t.Errorf("cold Encapsulate: %d pairings, %d public scalar mults; want 1 and 0", pairings, mults)
	}
	if pairings, mults := opCounts(encapsulate); pairings != 0 || mults != 0 {
		t.Errorf("warm Encapsulate: %d pairings, %d public scalar mults; want 0 and 0", pairings, mults)
	}
}

// TestPairIdentityFallback drives the branch no preset will ever take:
// on the tiny curve (q = 263) one identity in 263 hashes to a point whose
// cleared image is ∞, where PairIdentity must agree with H1's retry rule.
// Every identity, on either branch, must give Pair(H1(id), P_pub).
func TestPairIdentityFallback(t *testing.T) {
	c := ec.MustCurve(ff.MustField(big.NewInt(1051)), big.NewInt(263))
	g, err := c.HashToSubgroup("tiny-bfibe", []byte("gen"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := (&pairing.Params{P: c.F.P(), Q: c.Q, Gx: g.X.BigInt(), Gy: g.Y.BigInt()}).System()
	if err != nil {
		t.Fatal(err)
	}
	p := &Params{Sys: sys, PPub: sys.Curve.ScalarMult(g, big.NewInt(97))}
	fellBack := 0
	for i := 0; i < 2000; i++ {
		id := []byte(fmt.Sprintf("tiny-id-%d", i))
		r, err := sys.Curve.HashToCurvePoint(identityDomain, id)
		if err != nil {
			t.Fatal(err)
		}
		if sys.Curve.ClearCofactor(r).Inf {
			fellBack++
		}
		q, err := p.HashIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.PairIdentity(id)
		if err != nil {
			t.Fatal(err)
		}
		if want := sys.Pair(q, p.PPub); !got.Equal(want) || got.IsOne() {
			t.Fatalf("identity %d: PairIdentity ≠ Pair(H1(id), P_pub)", i)
		}
	}
	if fellBack == 0 {
		t.Fatal("no identity exercised the fallback")
	}
}

var sinkKey []byte

// BenchmarkEncapsulateCold is Encapsulate on the paper-scale preset with
// the g_ID cache disabled: hash-to-curve, the P_pub pairing with the
// cofactor folded in, U = rP on the comb and g_ID^r.
func BenchmarkEncapsulateCold(b *testing.B) {
	sys := pairing.ParamsBF80.MustSystem()
	p, _, err := Setup(sys, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	p.SetGIDCacheCap(0)
	id := []byte("ELECTRIC-APTCOMPLEX-SV-CA||nonce-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, sinkKey, err = p.Encapsulate(id, 16, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPerMsg is the receiving client's fixture on the paper-scale preset:
// one extracted key, its Decapsulator and one marshalled encapsulation.
func benchPerMsg(b *testing.B) (*Params, *MasterKey, *Decapsulator, []byte) {
	b.Helper()
	p, mk, err := Setup(pairing.ParamsBF80.MustSystem(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	id := []byte("ELECTRIC-APTCOMPLEX-SV-CA||nonce-bytes")
	sk, err := mk.Extract(p, id)
	if err != nil {
		b.Fatal(err)
	}
	d, err := p.NewDecapsulator(sk)
	if err != nil {
		b.Fatal(err)
	}
	enc, _, err := p.Encapsulate(id, 16, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	return p, mk, d, MarshalEncapsulation(p, enc)
}

// BenchmarkUnmarshalEncapsulation times the decoder with its exact order-q
// check (one public multiplication by q) — per retrieved message, and what
// no bench/ rung times (ROADMAP 1(b)).
func BenchmarkUnmarshalEncapsulation(b *testing.B) {
	p, _, _, raw := benchPerMsg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalEncapsulation(p, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecapsulatorPerMsg is the other half of the per-message client
// path: one precomputed-line pairing and the KDF.
func BenchmarkDecapsulatorPerMsg(b *testing.B) {
	p, _, d, raw := benchPerMsg(b)
	enc, err := UnmarshalEncapsulation(p, raw)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkKey, err = d.Decapsulate(enc, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientPerMsg is the two above back to back, the path
// DESIGN.md §9's CPU-profile shares are taken on.
func BenchmarkClientPerMsg(b *testing.B) {
	p, _, d, raw := benchPerMsg(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := UnmarshalEncapsulation(p, raw)
		if err != nil {
			b.Fatal(err)
		}
		if sinkKey, err = d.Decapsulate(enc, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtract is the PKG's per-identity cost: hash to G1 (cofactor
// cleared on the curve) and the secret multiplication by s.
func BenchmarkExtract(b *testing.B) {
	p, mk, _, _ := benchPerMsg(b)
	id := []byte("ELECTRIC-APTCOMPLEX-SV-CA||nonce-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mk.Extract(p, id); err != nil {
			b.Fatal(err)
		}
	}
}
