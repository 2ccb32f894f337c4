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
func offSubgroupU(t testing.TB, c *ec.Curve) ec.Point {
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

// torsionPoints returns T = q·S for an on-curve S outside G1 — a point of
// order dividing h, with no G1 part — and the 2-torsion point (0, 0).
func torsionPoints(t testing.TB, c *ec.Curve) (tors, two ec.Point) {
	t.Helper()
	tors = c.ScalarMult(offSubgroupU(t, c), c.Q)
	two, err := c.NewPoint(c.F.Zero(), c.F.Zero())
	if err != nil || tors.Inf {
		t.Fatalf("torsion points: %v, q·S = %v", err, tors)
	}
	return tors, two
}

// TestDecapsulationOffSubgroupEqualsProjection holds the rule for points
// that are only ever second pairing arguments (DESIGN.md §9): the decoder
// checks the curve and refuses ∞ but not the order, because an on-curve
// U + T with T of order dividing h decapsulates to exactly U's key — it
// probes nothing U does not. A point with no G1 part (T alone, (0, 0))
// decodes and is refused at decapsulation, whose pairing value is 1; and
// a private key, a first argument, keeps its order check. (BasicIdent and
// FullIdent under the same points: experiments/'s TestIdentOutsideG1.)
func TestDecapsulationOffSubgroupEqualsProjection(t *testing.T) {
	p, mk := testSetup(t)
	c := p.Sys.Curve
	id := []byte("victim")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p.NewDecapsulator(sk)
	if err != nil {
		t.Fatal(err)
	}
	tors, two := torsionPoints(t, c)
	enc, key, err := p.Encapsulate(id, 16, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := UnmarshalEncapsulation(p, c.Bytes(c.Add(enc.u, tors)))
	if err != nil {
		t.Fatalf("U + T refused: %v", err)
	}
	for what, decap := range map[string]func(*Encapsulation) ([]byte, error){
		"Decapsulate":  func(e *Encapsulation) ([]byte, error) { return p.Decapsulate(sk, e, 16) },
		"Decapsulator": func(e *Encapsulation) ([]byte, error) { return dec.Decapsulate(e, 16) },
	} {
		if got, err := decap(shifted); err != nil || !bytes.Equal(got, key) {
			t.Errorf("%s(U + T) = %x, %v; want U's key %x", what, got, err, key)
		}
		for name, pt := range map[string]ec.Point{"q·S": tors, "(0, 0)": two} {
			pure, err := UnmarshalEncapsulation(p, c.Bytes(pt))
			if err != nil {
				t.Fatalf("%s refused by the decoder: %v", name, err)
			}
			if _, err := decap(pure); err == nil {
				t.Errorf("%s accepted %s, a point with no G1 part", what, name)
			}
		}
		for name, e := range map[string]*Encapsulation{"nil": nil, "the zero value": {}} {
			if _, err := decap(e); err == nil {
				t.Errorf("%s accepted %s", what, name)
			}
		}
	}
	offCurve := c.Bytes(ec.Point{X: enc.u.X, Y: enc.u.Y.Add(c.F.One())})
	for what, b := range map[string][]byte{"an off-curve point": offCurve, "the identity": c.Bytes(c.Infinity())} {
		if _, err := UnmarshalEncapsulation(p, b); err == nil {
			t.Errorf("UnmarshalEncapsulation accepted %s", what)
		}
	}

	bad := offSubgroupU(t, c)
	if _, err := UnmarshalPrivateKey(p, MarshalPrivateKey(p, &PrivateKey{ID: []byte("x"), D: bad})); err == nil {
		t.Error("UnmarshalPrivateKey accepted an off-subgroup point")
	}
}

// TestFirstArgumentOutsideG1: a private key whose point is on the curve
// but outside G1 — (0, 0), q·S of order dividing h, or G + q·S, none of
// which extraction makes and none of which NewDecapsulator checks for —
// never panics: Decapsulate and a Decapsulator refuse every encapsulation
// (the pairing value is 1).
func TestFirstArgumentOutsideG1(t *testing.T) {
	p, _ := testSetup(t)
	c := p.Sys.Curve
	id := []byte("victim")
	tors, two := torsionPoints(t, c)
	enc, _, err := p.Encapsulate(id, 16, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]ec.Point{"(0, 0)": two, "q·S": tors, "G + q·S": c.Add(p.Sys.G1(), tors)} {
		sk := &PrivateKey{ID: id, D: d}
		dec, err := p.NewDecapsulator(sk)
		if err != nil {
			t.Fatal(err)
		}
		if key, err := dec.Decapsulate(enc, 16); err == nil {
			t.Errorf("a Decapsulator over %s returned key %x", name, key)
		}
		if key, err := p.Decapsulate(sk, enc, 16); err == nil {
			t.Errorf("Decapsulate with a key over %s returned key %x", name, key)
		}
	}
}

// FuzzUnmarshalEncapsulation: the decoder a receiving client runs on every
// message never panics, and whatever it accepts is the canonical encoding
// of a finite point on the curve.
func FuzzUnmarshalEncapsulation(f *testing.F) {
	p, _ := testSetup(f)
	enc, _, err := p.Encapsulate([]byte("fuzz"), 16, rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	good := MarshalEncapsulation(p, enc)
	tors, two := torsionPoints(f, p.Sys.Curve)
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(p.Sys.Curve.Bytes(ec.Point{X: enc.u.X, Y: enc.u.Y.Add(p.Sys.Curve.F.One())}))
	f.Add(p.Sys.Curve.Bytes(tors))
	f.Add(p.Sys.Curve.Bytes(two))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := UnmarshalEncapsulation(p, b)
		if err != nil {
			return
		}
		if got.u.Inf || !p.Sys.Curve.IsOnCurve(got.u) {
			t.Fatalf("accepted a malformed point: %x", b)
		}
		if !bytes.Equal(MarshalEncapsulation(p, got), b) {
			t.Fatalf("accepted a non-canonical encoding: %x", b)
		}
	})
}

// gidTraffic runs f and returns the g_ID cache traffic it caused, from
// the process-wide counters; callers must not run in parallel with other
// encryptors.
func gidTraffic(f func()) (hits, misses, evictions uint64) {
	before := obsv.CounterMap()
	f()
	after := obsv.CounterMap()
	delta := func(name string) uint64 { return after[name] - before[name] }
	return delta("gid_cache_hits"), delta("gid_cache_misses"), delta("gid_cache_evictions")
}

// wantGIDTraffic runs f and fails unless it caused exactly the given
// g_ID cache hits, misses and evictions.
func wantGIDTraffic(t *testing.T, what string, hits, misses, evictions uint64, f func()) {
	t.Helper()
	if h, m, e := gidTraffic(f); h != hits || m != misses || e != evictions {
		t.Fatalf("%s: %d hits, %d misses, %d evictions; want %d, %d, %d", what, h, m, e, hits, misses, evictions)
	}
}

// encapsulate is Encapsulate of a 16-byte key, failing t on error.
func encapsulate(t *testing.T, p *Params, id []byte) (*Encapsulation, []byte) {
	t.Helper()
	enc, key, err := p.Encapsulate(id, 16, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return enc, key
}

// TestGIDCacheHitCorrectness proves a cache hit yields the same working
// keys as a cold encapsulation: encapsulate twice to one identity — a
// miss, then a hit — and decapsulate both.
func TestGIDCacheHitCorrectness(t *testing.T) {
	p, mk := freshParams(t)
	id := []byte("ELECTRIC-APT-SV-CA||nonce-7")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	var enc1, enc2 *Encapsulation
	var key1, key2 []byte
	wantGIDTraffic(t, "first encapsulation", 0, 1, 0, func() { enc1, key1 = encapsulate(t, p, id) })
	wantGIDTraffic(t, "second encapsulation", 1, 0, 0, func() { enc2, key2 = encapsulate(t, p, id) })
	if bytes.Equal(key1, key2) {
		t.Fatal("two encapsulations derived the same session key")
	}
	for i, pair := range []struct {
		enc *Encapsulation
		key []byte
	}{{enc1, key1}, {enc2, key2}} {
		got, err := p.Decapsulate(sk, pair.enc, 16)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pair.key) {
			t.Fatalf("encapsulation %d: decapsulated key mismatch", i)
		}
	}
}

// TestGIDCacheBoundAndInvalidation covers the LRU bound, per-identity
// invalidation, shrinking the bound, and the cache-disabled mode, each
// read off the cache's hit, miss and eviction counters.
func TestGIDCacheBoundAndInvalidation(t *testing.T) {
	p, _ := freshParams(t)
	p.SetGIDCacheCap(2)
	a, b, c := []byte("id-a"), []byte("id-b"), []byte("id-c")
	wantGIDTraffic(t, "three identities under bound 2", 0, 3, 1, func() {
		for _, id := range [][]byte{a, b, c} {
			encapsulate(t, p, id)
		}
	})
	// id-a was evicted (least recent), id-b and id-c are held.
	wantGIDTraffic(t, "the held identities", 2, 0, 0, func() { encapsulate(t, p, b); encapsulate(t, p, c) })

	// Invalidating a held identity drops it without an eviction, so it
	// comes back in the slot it freed; an absent identity is a no-op.
	p.InvalidateIdentity(c)
	p.InvalidateIdentity([]byte("never-seen"))
	wantGIDTraffic(t, "after invalidating id-c", 1, 1, 0, func() { encapsulate(t, p, c); encapsulate(t, p, b) })

	// A smaller bound drops the least recently used entry at once.
	p.SetGIDCacheCap(1)
	wantGIDTraffic(t, "under bound 1", 1, 1, 1, func() { encapsulate(t, p, b); encapsulate(t, p, c) })

	// Cap 0 drops what the cache holds and disables it; encryption keeps
	// working.
	p.SetGIDCacheCap(0)
	wantGIDTraffic(t, "disabled", 0, 2, 0, func() { encapsulate(t, p, a); encapsulate(t, p, a) })
}

// TestGIDCacheConcurrent hammers the cache under -race: encryptors over a
// small identity working set interleaved with rotations (invalidate),
// disabling (which drops everything held) and capacity changes.
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
				p.SetGIDCacheCap(0)
			}
			if i%17 == 0 {
				p.SetGIDCacheCap(4 + i%5)
			}
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
		if want := sys.Pair(q, p.PPub); !bytes.Equal(got.Bytes(), want.Bytes()) || got.IsOne() {
			t.Fatalf("identity %d: PairIdentity ≠ Pair(H1(id), P_pub)", i)
		}
	}
	if fellBack == 0 {
		t.Fatal("no identity exercised the fallback")
	}
}

// TestDecapsulateBatch: a batch under one key, and one whose messages'
// keys are mixed and repeated, equals per-message Decapsulate, and the key
// Encapsulate gave, message for message, at every length from 1 to 17 —
// across the lane crossover and two lane widths — with AES-128 and
// AES-256 key lengths mixed in one batch. A nil encapsulation, the zero
// value, or one whose pairing is 1, in mid-batch, is refused alone: its
// neighbours' keys, its own key's and the other keys', come out
// unchanged, and a nil one is refused before any pairing.
func TestDecapsulateBatch(t *testing.T) {
	p, mk := testSetup(t)
	var ids [3][]byte
	var keyDs [3]*Decapsulator
	for k := range ids {
		ids[k] = []byte(fmt.Sprintf("batch-%d", k))
		sk, err := mk.Extract(p, ids[k])
		if err != nil {
			t.Fatal(err)
		}
		if keyDs[k], err = p.NewDecapsulator(sk); err != nil {
			t.Fatal(err)
		}
	}
	const most = 2*ff.LaneWidth + 1
	for kind, keyOf := range map[string]func(i int) int{
		"one key":    func(int) int { return 0 },
		"mixed keys": func(i int) int { return (i*i + i/3) % 3 },
	} {
		ds := make([]*Decapsulator, most)
		encs, want, lens := make([]*Encapsulation, most), make([][]byte, most), make([]int, most)
		for i := range encs {
			var err error
			ds[i], lens[i] = keyDs[keyOf(i)], 16+16*(i%2)
			if encs[i], want[i], err = p.Encapsulate(ids[keyOf(i)], lens[i], rand.Reader); err != nil {
				t.Fatal(err)
			}
		}
		for n := 1; n <= most; n++ {
			keys, errs := DecapsulateBatch(ds[:n], encs[:n], lens[:n])
			for i := range n {
				single, err := ds[i].Decapsulate(encs[i], lens[i])
				if errs[i] != nil || err != nil || !bytes.Equal(keys[i], single) || !bytes.Equal(keys[i], want[i]) {
					t.Fatalf("%s, batch of %d, message %d: batch %x (%v), single %x (%v), want %x", kind, n, i, keys[i], errs[i], single, err, want[i])
				}
			}
		}

		tors, _ := torsionPoints(t, p.Sys.Curve)
		noG1, err := UnmarshalEncapsulation(p, p.Sys.Curve.Bytes(tors))
		if err != nil {
			t.Fatal(err)
		}
		run := ff.LaneWidth + 3
		mid := run / 2
		for name, bad := range map[string]*Encapsulation{"nil": nil, "the zero value": {}, "q·S": noG1} {
			mixed := append(append(append([]*Encapsulation{}, encs[:mid]...), bad), encs[mid+1:run]...)
			var keys [][]byte
			var errs []error
			pairings, _ := opCounts(func() { keys, errs = DecapsulateBatch(ds[:run], mixed, lens[:run]) })
			wantPairings := uint64(run - 1)
			if bad == noG1 {
				wantPairings = uint64(run)
			}
			if pairings != wantPairings {
				t.Errorf("%s, %s in mid-batch: %d pairings, want %d", kind, name, pairings, wantPairings)
			}
			for i := range run {
				if i == mid {
					if errs[i] == nil || keys[i] != nil {
						t.Errorf("%s, %s in mid-batch accepted: %x", kind, name, keys[i])
					}
				} else if errs[i] != nil || !bytes.Equal(keys[i], want[i]) {
					t.Errorf("%s, %s in mid-batch changed message %d: %x (%v), want %x", kind, name, i, keys[i], errs[i], want[i])
				}
			}
		}
	}
}

var sinkKey []byte

// BenchmarkEncapsulateCold is Encapsulate on the paper-scale preset with
// the g_ID cache disabled: hash-to-curve, the pairing against the lines
// of (h mod q)·P_pub, U = rP on the comb and g_ID^r. /fixed hashes one
// identity every time, so its H1 attempt count never varies; /varied
// hashes a fresh identity per call, as a deposit at a fresh nonce does,
// and so averages over attempt counts.
func BenchmarkEncapsulateCold(b *testing.B) {
	sys := pairing.ParamsBF80.MustSystem()
	p, _, err := Setup(sys, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	p.SetGIDCacheCap(0)
	id := []byte("ELECTRIC-APTCOMPLEX-SV-CA||nonce-bytes")
	b.Run("fixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, sinkKey, err = p.Encapsulate(id, 16, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("varied", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			varied := fmt.Appendf(nil, "ELECTRIC-APTCOMPLEX-SV-CA||nonce-%d", i)
			if _, sinkKey, err = p.Encapsulate(varied, 16, rand.Reader); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEncapsulateWarm is Encapsulate on the paper-scale preset to a
// hot identity, one whose g_ID is cached and has its fixed-base table:
// U = rP on the comb and g_ID^r from the table.
func BenchmarkEncapsulateWarm(b *testing.B) {
	sys := pairing.ParamsBF80.MustSystem()
	p, _, err := Setup(sys, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	id := []byte("ELECTRIC-APTCOMPLEX-SV-CA||nonce-bytes")
	for i := 0; i <= gidTableUses; i++ {
		if _, sinkKey, err = p.Encapsulate(id, 16, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkUnmarshalEncapsulation times the decoder — the canonical
// encoding and the curve equation, no multiplication by q since U is only
// ever a second pairing argument — per retrieved message, and what no
// bench/ rung times.
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

// BenchmarkDecapsulatorBatch is a lane batch's worth of the same: eight
// encapsulations in one DecapsulateBatch, under one key (keys=1, a
// search's broadcast lines) or each under its own (keys=8, a page chunk's
// gathered lines). Where the lane kernel runs both read about two
// BenchmarkDecapsulatorPerMsg, not eight.
func BenchmarkDecapsulatorBatch(b *testing.B) {
	p, mk, d, raw := benchPerMsg(b)
	enc, err := UnmarshalEncapsulation(p, raw)
	if err != nil {
		b.Fatal(err)
	}
	for _, nkeys := range []int{1, ff.LaneWidth} {
		ds := make([]*Decapsulator, ff.LaneWidth)
		encs, lens := make([]*Encapsulation, ff.LaneWidth), make([]int, ff.LaneWidth)
		for i := range encs {
			ds[i], encs[i], lens[i] = d, enc, 16
			if i%nkeys != 0 {
				// Another key's lines; its keys come out wrong, at the same cost.
				sk, err := mk.Extract(p, []byte(fmt.Sprintf("bench-%d", i)))
				if err == nil {
					ds[i], err = p.NewDecapsulator(sk)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("keys=%d", nkeys), func(b *testing.B) {
			DecapsulateBatch(ds, encs, lens) // build the lane lines outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				keys, errs := DecapsulateBatch(ds, encs, lens)
				if errs[0] != nil {
					b.Fatal(errs[0])
				}
				sinkKey = keys[0]
			}
		})
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
