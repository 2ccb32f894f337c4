package ff

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// Tests of the safegcd inversion (inv.go). math/big's ModInverse, an
// extended Euclid sharing no code with it, is the reference throughout.

// presetFields returns the moduli of the three presets: test (257 bits,
// 5 limbs), bf80 (512, 8) and bf112 (1024, 16).
func presetFields(t testing.TB) map[string]*Field {
	t.Helper()
	fs := diffFields(t)
	return map[string]*Field{"test": fs[1], "bf80": fs[2], "bf112": fs[3]}
}

// checkInv inverts v in f and compares with ModInverse, also checking
// x·x⁻¹ = 1 and that no limb above the field's width was written.
func checkInv(t *testing.T, f *Field, v *big.Int) {
	t.Helper()
	x := f.NewElement(v)
	inv := x.Inv()
	want := new(big.Int).ModInverse(new(big.Int).Mod(v, f.p), f.p)
	if got := inv.BigInt(); got.Cmp(want) != 0 {
		t.Fatalf("p = %d bits: Inv(%v) = %v, want %v", f.p.BitLen(), v, got, want)
	}
	if !x.Mul(inv).IsOne() {
		t.Fatalf("p = %d bits: %v·Inv(%v) ≠ 1", f.p.BitLen(), v, v)
	}
	for i := f.n; i < MaxLimbs; i++ {
		if inv.v[i] != 0 {
			t.Fatalf("p = %d bits: Inv(%v) wrote limb %d above the field's %d", f.p.BitLen(), v, i, f.n)
		}
	}
}

// TestInvExhaustiveToyFields inverts every non-zero residue of the two
// toy fields the reference pairing runs on.
func TestInvExhaustiveToyFields(t *testing.T) {
	for _, p := range []int64{1051, 6311} {
		f := MustField(big.NewInt(p))
		for v := int64(1); v < p; v++ {
			x := f.FromInt64(v)
			inv := x.Inv()
			if !x.Mul(inv).IsOne() {
				t.Fatalf("p = %d: %d·Inv(%d) ≠ 1", p, v, v)
			}
			if want := new(big.Int).ModInverse(big.NewInt(v), big.NewInt(p)); inv.BigInt().Cmp(want) != 0 {
				t.Fatalf("p = %d: Inv(%d) = %v, want %v", p, v, inv, want)
			}
		}
	}
}

// TestInvMatchesBig compares 10⁴ random inversions per preset with
// ModInverse.
func TestInvMatchesBig(t *testing.T) {
	const n = 10000
	rng := mrand.New(mrand.NewSource(35))
	for name, f := range presetFields(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < n; i++ {
				v := new(big.Int).Rand(rng, f.p)
				if v.Sign() == 0 {
					continue
				}
				checkInv(t, f, v)
			}
		})
	}
}

// TestInvEdgeValues inverts 1, 2, p−1, (p−1)/2 and the values whose limbs
// are all ones — in the canonical value and in the Montgomery form Inv
// actually reads — on every width diffFields spans.
func TestInvEdgeValues(t *testing.T) {
	for _, f := range diffFields(t) {
		pm1 := new(big.Int).Sub(f.p, big.NewInt(1))
		ones := new(big.Int).Lsh(big.NewInt(1), uint(64*(f.n-1)))
		ones.Sub(ones, big.NewInt(1))
		if ones.Sign() == 0 {
			ones.SetUint64(1<<uint(f.p.BitLen()-1) - 1) // one limb: the low bits below p's top bit
		}
		for _, v := range []*big.Int{big.NewInt(1), big.NewInt(2), pm1, new(big.Int).Rsh(pm1, 1), ones} {
			checkInv(t, f, v)
		}
		// An element whose Montgomery limbs are all ones below the top one.
		x := f.Zero()
		for i := 0; i < f.n-1; i++ {
			x.v[i] = ^uint64(0)
		}
		if f.n == 1 {
			x.v[0] = f.pl[0] - 1
		}
		if inv := x.Inv(); !x.Mul(inv).IsOne() {
			t.Fatalf("p = %d bits: all-ones Montgomery limbs: x·Inv(x) ≠ 1", f.p.BitLen())
		}
	}
}

// TestInvBatchCount pins each preset's divstep budget to Bernstein–Yang
// Theorem 11.2: ⌊(49d+80)/17⌋ δ = 1 divsteps drive g to 0 for a d-bit
// modulus, here rounded up to 59-divstep batches, with ⌊d/62⌋ + 1
// signed-62 limbs (5, 9, 17 for 5, 8, 16 64-bit limbs).
func TestInvBatchCount(t *testing.T) {
	fields := presetFields(t)
	for name, want := range map[string]struct{ steps, batches, k62 int }{
		"test":  {745, 13, 5},
		"bf80":  {1480, 26, 9},
		"bf112": {2956, 51, 17},
	} {
		f := fields[name]
		d := f.p.BitLen()
		if steps := (49*d + 80) / 17; steps != want.steps {
			t.Errorf("%s: Theorem 11.2 gives %d divsteps for d = %d, want %d", name, steps, d, want.steps)
		}
		if f.invBatches != want.batches || f.invBatches*divstepsPerBatch < want.steps || (f.invBatches-1)*divstepsPerBatch >= want.steps {
			t.Errorf("%s: %d batches of %d divsteps, want %d covering exactly the bound %d", name, f.invBatches, divstepsPerBatch, want.batches, want.steps)
		}
		if f.k62 != want.k62 {
			t.Errorf("%s: %d signed-62 limbs, want %d", name, f.k62, want.k62)
		}
	}
}

// FuzzInv checks Inv(Inv(x)) = x and x·Inv(x) = 1 on every preset for
// fuzzed bytes, read as one integer and reduced mod each modulus.
func FuzzInv(f *testing.F) {
	fields := diffFields(f)[1:4]
	f.Add(make([]byte, 128))
	seed := make([]byte, 128)
	for i := range seed {
		seed[i] = 0xff
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := new(big.Int).SetBytes(raw)
		for _, fld := range fields {
			x := fld.NewElement(v)
			if x.IsZero() {
				continue
			}
			inv := x.Inv()
			if !inv.Inv().Equal(x) || !x.Mul(inv).IsOne() {
				t.Fatalf("p = %d bits: Inv fails on %v", fld.p.BitLen(), v)
			}
		}
	})
}
