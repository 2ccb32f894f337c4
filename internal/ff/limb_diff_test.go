package ff

import (
	"bytes"
	"math/big"
	mrand "math/rand"
	"testing"
)

// Differential tests: every limb operation is cross-checked against a
// math/big reference over several limb widths (1, 5, 8, 16), on random
// operands and on the edge operands 0, 1, p−1. Two moduli have 8 limbs:
// bf80, which fills all 512 bits, and a 480-bit one with slack, so the
// straight-line 8-limb kernels run with and without a carry out of limb 7.
// The 8-limb width also cross-checks the amd64 ADX kernel against the
// portable Go unrolling, and the 8-limb add and subtract against the limb
// loops that remain the body for every other width.

// diffFields returns fields spanning the supported limb widths: the
// 1-limb Mersenne test prime, the moduli of the three presets (test at 5
// limbs, bf80 at 8 — the ADX kernel —, bf112 at 16; entries 1–3), a
// prime just below 2¹⁰²⁴ whose top limb is all ones and a prime just below
// 2⁴⁸⁰, an 8-limb modulus whose top limb has 32 bits of slack.
func diffFields(t testing.TB) []*Field {
	t.Helper()
	ps := []string{
		"2305843009213693951", // 2⁶¹−1
		// The 257-bit test-preset modulus (internal/pairing ParamsTest).
		"146243787580160607335409866087352920027733935707104342391904050466984690923907",
		// bf80: the 512-bit deployment modulus.
		"12810777694916072611203116704468939970767213228450076790270442963300868876670239351063471358988175446936393497845530695391654418328020042030714485041645431",
		// bf112: the 1024-bit modulus (internal/pairing ParamsBF112).
		"174463668563175016348171735044143113285642078073673012284111640033112125236158872805646547183737654029781222534788685344144452575105812177370551550311370190117887547450643487320246065544535910775437410440675230997844407190502903084933784460816225113516295449305229068624536286863837831446367740645583121759883",
	}
	var fs []*Field
	for _, s := range ps {
		p, ok := new(big.Int).SetString(s, 10)
		if !ok {
			t.Fatalf("bad prime literal %q", s)
		}
		fs = append(fs, MustField(p))
	}
	// A full-width 1024-bit prime ≡ 3 (mod 4) exercises MaxLimbs; a
	// 480-bit one gives modAdd8 a modulus where x + y never carries out.
	for _, bits := range []uint{1024, 480} {
		p := new(big.Int).Lsh(big.NewInt(1), bits)
		p.Sub(p, big.NewInt(1))
		for !p.ProbablyPrime(20) || p.Bit(1) == 0 {
			p.Sub(p, big.NewInt(2))
		}
		fs = append(fs, MustField(p))
	}
	return fs
}

// diffOperands yields edge values plus deterministic random values.
func diffOperands(f *Field, rng *mrand.Rand, n int) []*big.Int {
	p := f.P()
	ops := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(p, big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(2)),
		new(big.Int).Rsh(p, 1),
	}
	for i := 0; i < n; i++ {
		v := new(big.Int).Rand(rng, p)
		ops = append(ops, v)
	}
	return ops
}

func TestLimbArithmeticMatchesBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	for _, f := range diffFields(t) {
		p := f.P()
		ops := diffOperands(f, rng, 24)
		for i, av := range ops {
			a := f.NewElement(av)
			// Round-trip through the Montgomery domain.
			if got := a.BigInt(); got.Cmp(new(big.Int).Mod(av, p)) != 0 {
				t.Fatalf("p=%d bits: NewElement/BigInt roundtrip: %v != %v mod p", p.BitLen(), got, av)
			}
			// Unary ops.
			wantNeg := new(big.Int).Neg(av)
			wantNeg.Mod(wantNeg, p)
			if got := a.Neg().BigInt(); got.Cmp(wantNeg) != 0 {
				t.Fatalf("p=%d bits: Neg(%v) = %v, want %v", p.BitLen(), av, got, wantNeg)
			}
			wantSq := new(big.Int).Mul(av, av)
			wantSq.Mod(wantSq, p)
			if got := a.Square().BigInt(); got.Cmp(wantSq) != 0 {
				t.Fatalf("p=%d bits: Square(%v) = %v, want %v", p.BitLen(), av, got, wantSq)
			}
			if av.Sign() != 0 {
				inv := a.Inv()
				prod := new(big.Int).Mul(inv.BigInt(), av)
				prod.Mod(prod, p)
				if prod.Cmp(big.NewInt(1)) != 0 {
					t.Fatalf("p=%d bits: Inv(%v)·%v = %v, want 1", p.BitLen(), av, av, prod)
				}
			}
			if got, want := a.IsZero(), av.Sign() == 0; got != want {
				t.Fatalf("p=%d bits: IsZero(%v) = %v", p.BitLen(), av, got)
			}
			if got, want := a.Legendre(), big.Jacobi(av, p); got != want {
				t.Fatalf("p=%d bits: Legendre(%v) = %d, want %d", p.BitLen(), av, got, want)
			}
			// Every in-place op and its value wrapper against a rotating
			// partner, in F_p and in F_p².
			bv := ops[(i*7+3)%len(ops)]
			b := f.NewElement(bv)
			for _, op := range elemOps {
				checkElemOp(t, f, op, av, bv)
			}
			a2, b2 := bigE2{av, ops[(i*3+1)%len(ops)]}, bigE2{bv, ops[(i*5+2)%len(ops)]}
			for _, op := range e2Ops {
				checkE2Op(t, f, op, a2, b2)
			}
			if got, want := a.Equal(b), av.Cmp(bv) == 0; got != want {
				t.Fatalf("p=%d bits: Equal(%v, %v) = %v", p.BitLen(), av, bv, got)
			}
			// Exp against big.Exp on a public exponent.
			k := new(big.Int).Rand(rng, p)
			wantExp := new(big.Int).Exp(av, k, p)
			if got := a.Exp(k).BigInt(); got.Cmp(wantExp) != 0 {
				t.Fatalf("p=%d bits: Exp(%v, %v) = %v, want %v", p.BitLen(), av, k, got, wantExp)
			}
		}
	}
}

func TestLimbSqrtMatchesBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(2))
	for _, f := range diffFields(t) {
		p := f.P()
		for i := 0; i < 12; i++ {
			av := new(big.Int).Rand(rng, p)
			a := f.NewElement(av)
			r, ok := a.Sqrt()
			if wantOK := big.Jacobi(av, p) >= 0; ok != wantOK {
				t.Fatalf("p=%d bits: Sqrt(%v) ok=%v, want %v", p.BitLen(), av, ok, wantOK)
			}
			if ok {
				sq := new(big.Int).Mul(r.BigInt(), r.BigInt())
				sq.Mod(sq, p)
				if sq.Cmp(new(big.Int).Mod(av, p)) != 0 {
					t.Fatalf("p=%d bits: Sqrt(%v)² = %v", p.BitLen(), av, sq)
				}
			}
		}
	}
}

// TestMontgomeryEncodeDecodeVectors pins the internal Montgomery form on
// fixed vectors so a silent change to R or the reduction is caught even
// if it happens consistently on both encode and decode.
func TestMontgomeryEncodeDecodeVectors(t *testing.T) {
	f := MustField(testPrime) // 2⁶¹−1, one limb, R = 2⁶⁴
	// a·R mod p for R = 2⁶⁴: a·2⁶⁴ mod (2⁶¹−1) = a·2³ mod p (since 2⁶¹ ≡ 1).
	for _, a := range []int64{0, 1, 2, 5, 1 << 40} {
		e := f.FromInt64(a)
		want := new(big.Int).Lsh(big.NewInt(a), 3)
		want.Mod(want, testPrime)
		if e.v[0] != want.Uint64() {
			t.Fatalf("Montgomery form of %d = %#x, want %#x (= a·8 mod 2⁶¹−1)", a, e.v[0], want.Uint64())
		}
		if got := e.BigInt().Int64(); got != a {
			t.Fatalf("decode(encode(%d)) = %d", a, got)
		}
	}
	// One pinned wide vector on the bf80 field: 2⁵¹² mod p is the
	// Montgomery form of 1, available as Field.one.
	bf := benchField
	rModP := new(big.Int).Lsh(big.NewInt(1), 512)
	rModP.Mod(rModP, bf.P())
	if got := bf.One(); new(big.Int).SetBytes(got.Bytes()).Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("One() decodes to %v", got.BigInt())
	}
	var one limbs
	one = bf.one
	var back [64]byte
	for i := 0; i < 64; i++ {
		back[63-i] = byte(one[i/8] >> (8 * (i % 8)))
	}
	if new(big.Int).SetBytes(back[:]).Cmp(rModP) != 0 {
		t.Fatalf("internal form of One() is not 2⁵¹² mod p")
	}
}

func TestFromBytesRejectsOutOfRange(t *testing.T) {
	for _, f := range diffFields(t) {
		p := f.P()
		// Exactly p, p+1, and all-ones must be rejected; p−1 accepted.
		for _, v := range []*big.Int{
			new(big.Int).Set(p),
			new(big.Int).Add(p, big.NewInt(1)),
		} {
			enc := make([]byte, f.ByteLen())
			if v.BitLen() > 8*f.ByteLen() {
				continue // p+1 may overflow the fixed width; FillBytes would panic
			}
			v.FillBytes(enc)
			if _, err := f.FromBytes(enc); err == nil {
				t.Fatalf("p=%d bits: FromBytes accepted %v ≥ p", p.BitLen(), v)
			}
		}
		ones := bytes.Repeat([]byte{0xff}, f.ByteLen())
		if _, err := f.FromBytes(ones); err == nil {
			// All-ones can be < p only when p is within 1 of the power of 256.
			if new(big.Int).SetBytes(ones).Cmp(p) >= 0 {
				t.Fatalf("p=%d bits: FromBytes accepted all-ones ≥ p", p.BitLen())
			}
		}
		pm1 := new(big.Int).Sub(p, big.NewInt(1))
		enc := make([]byte, f.ByteLen())
		pm1.FillBytes(enc)
		e, err := f.FromBytes(enc)
		if err != nil {
			t.Fatalf("p=%d bits: FromBytes rejected p−1: %v", p.BitLen(), err)
		}
		if e.BigInt().Cmp(pm1) != 0 {
			t.Fatalf("p=%d bits: FromBytes(p−1) decoded to %v", p.BitLen(), e.BigInt())
		}
		// Wrong lengths.
		if _, err := f.FromBytes(enc[:len(enc)-1]); err == nil {
			t.Fatalf("p=%d bits: FromBytes accepted short input", p.BitLen())
		}
		if _, err := f.FromBytes(append(enc, 0)); err == nil {
			t.Fatalf("p=%d bits: FromBytes accepted long input", p.BitLen())
		}
	}
}

// TestMontMul8KernelsAgree cross-checks the dispatching montMul8 (the
// ADX assembly where supported) against the portable Go unrolling and
// the generic loop, including edge operands.
func TestMontMul8KernelsAgree(t *testing.T) {
	f := benchField
	if f.n != 8 {
		t.Fatalf("benchField has %d limbs, want 8", f.n)
	}
	rng := mrand.New(mrand.NewSource(3))
	ops := diffOperands(f, rng, 200)
	for i, av := range ops {
		bv := ops[(i*5+1)%len(ops)]
		a, b := f.NewElement(av), f.NewElement(bv)
		var viaGo, viaDispatch, viaLoop limbs
		montMul8Go(&viaGo, &a.v, &b.v, &f.pl, f.m0)
		montMul8(&viaDispatch, &a.v, &b.v, &f.pl, f.m0)
		montMulN(&viaLoop, &a.v, &b.v, &f.pl, f.m0, 8)
		if viaGo != viaDispatch || viaGo != viaLoop {
			t.Fatalf("kernel disagreement on %v × %v:\n go=%v\ndis=%v\nloop=%v", av, bv, viaGo, viaDispatch, viaLoop)
		}
	}
}

// TestAddSub8KernelsAgree cross-checks the straight-line modAdd8 and
// modSub8 against the limb loops SetAdd and SetSub run at every other
// width, on both 8-limb moduli of diffFields: bf80, where (p−1)+(p−1)
// carries out of limb 7, and the 480-bit one, where nothing can. Besides
// 200 random pairs it runs the edges (p−1)+(p−1), x + y = p exactly, x − x
// and 0 − (p−1), each kernel in every aliasing shape.
func TestAddSub8KernelsAgree(t *testing.T) {
	rng := mrand.New(mrand.NewSource(37))
	loopAdd := func(z, x, y, m *limbs) {
		c := addN(z, x, y, 8)
		subMaskedN(z, m, c|geN(z, m, 8), 8)
	}
	loopSub := func(z, x, y, m *limbs) { addMaskedN(z, m, subN(z, x, y, 8), 8) }
	kernels := []struct {
		name       string
		fast, loop func(z, x, y, m *limbs)
	}{{"modAdd8", modAdd8, loopAdd}, {"modSub8", modSub8, loopSub}}
	var checked int
	for _, f := range diffFields(t) {
		if f.n != 8 {
			continue
		}
		checked++
		p := f.P()
		pm1 := new(big.Int).Sub(p, big.NewInt(1))
		half := new(big.Int).Rsh(p, 1)
		pairs := [][2]*big.Int{
			{pm1, pm1},                        // (p−1)+(p−1); (p−1)−(p−1)
			{big.NewInt(1), pm1},              // x + y = p
			{half, new(big.Int).Sub(p, half)}, // x + y = p
			{half, half},                      // x − x
			{big.NewInt(0), pm1},              // 0 − (p−1)
		}
		ops := diffOperands(f, rng, 200)
		for i, xv := range ops {
			pairs = append(pairs, [2]*big.Int{xv, ops[(i*5+1)%len(ops)]})
		}
		for _, pr := range pairs {
			x, y := f.limbsOfBig(pr[0]), f.limbsOfBig(pr[1])
			for _, k := range kernels {
				var want, wantXX limbs
				k.loop(&want, &x, &y, &f.pl)
				k.loop(&wantXX, &x, &x, &f.pl)
				var z limbs
				zx, zy, zxx := x, y, x
				k.fast(&z, &x, &y, &f.pl)
				k.fast(&zx, &zx, &y, &f.pl)
				k.fast(&zy, &x, &zy, &f.pl)
				k.fast(&zxx, &zxx, &zxx, &f.pl)
				for _, got := range []struct {
					shape   string
					z, want limbs
				}{{"fresh z", z, want}, {"z = x", zx, want}, {"z = y", zy, want}, {"z = x = y", zxx, wantXX}} {
					if got.z != got.want {
						t.Fatalf("p=%d bits: %s(%v, %v) with %s:\n kernel=%v\n  loops=%v",
							p.BitLen(), k.name, pr[0], pr[1], got.shape, got.z, got.want)
					}
				}
			}
		}
	}
	if checked != 2 {
		t.Fatalf("diffFields has %d 8-limb moduli, want 2", checked)
	}
}

// FuzzLimbFieldOps drives the limb arithmetic from raw bytes and
// cross-checks against math/big, so the fuzzer can hunt for carry-chain
// corner cases the fixed edge list misses. The two 64-byte operands are
// read at the width of each preset's modulus; op picks one row of elemOps
// or e2Ops, which is run in place (every aliasing shape), through its value
// wrapper and through the model.
func FuzzLimbFieldOps(f *testing.F) {
	presets := diffFields(f)[1:4]
	bf := presets[1]
	p := bf.P()
	f.Add(make([]byte, 128), uint8(0))
	seed := make([]byte, 128)
	p.FillBytes(seed[:64]) // a = p: must be rejected by FromBytes
	f.Add(seed, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, op uint8) {
		if len(raw) < 128 {
			return
		}
		aBytes, bBytes := raw[:64], raw[64:128]
		av := new(big.Int).SetBytes(aBytes)
		bv := new(big.Int).SetBytes(bBytes)
		a, errA := bf.FromBytes(aBytes)
		if (errA == nil) != (av.Cmp(p) < 0) {
			t.Fatalf("FromBytes accept/reject mismatch for %v", av)
		}
		if errA != nil {
			a = bf.NewElement(av)
		}
		// Serialization round-trip.
		back, err := bf.FromBytes(a.Bytes())
		if err != nil || !back.Equal(a) {
			t.Fatalf("Bytes/FromBytes roundtrip failed: %v", err)
		}
		for _, fld := range presets {
			// The widest preset reads both operands as one 1024-bit value
			// and its byte reversal, so its upper limbs see fuzzed bits too.
			x, y := av, bv
			if fld.n > 8 {
				x, y = new(big.Int).SetBytes(raw[:128]), new(big.Int).SetBytes(reversed(raw[:128]))
			}
			x, y = new(big.Int).Mod(x, fld.p), new(big.Int).Mod(y, fld.p)
			if i := int(op) % (len(elemOps) + len(e2Ops)); i < len(elemOps) {
				checkElemOp(t, fld, elemOps[i], x, y)
			} else {
				checkE2Op(t, fld, e2Ops[i-len(elemOps)], bigE2{x, y}, bigE2{y, x})
			}
		}
	})
}

func reversed(b []byte) []byte {
	out := make([]byte, len(b))
	for i, v := range b {
		out[len(b)-1-i] = v
	}
	return out
}
