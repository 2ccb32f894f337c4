package ff

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// Tests of the Jacobi symbol (inv.go). math/big's Jacobi, a binary
// reciprocity walk sharing no code with it, is the reference throughout.

// checkJacobi compares x.Jacobi() with big.Jacobi for v mod p. It reports
// whether the walk decided; an undecided walk must answer 0.
func checkJacobi(t testing.TB, f *Field, v *big.Int) bool {
	t.Helper()
	x := f.NewElement(v)
	want := big.Jacobi(new(big.Int).Mod(v, f.p), f.p)
	got := x.Jacobi()
	if got == 0 && want != 0 {
		return false
	}
	if got != want {
		t.Fatalf("p = %d bits: Jacobi(%v) = %d, want %d", f.p.BitLen(), v, got, want)
	}
	return true
}

// TestJacobiMatchesBig compares 10⁴ random elements per preset field with
// big.Jacobi and reports how many the walk left undecided.
func TestJacobiMatchesBig(t *testing.T) {
	const n = 10000
	rng := mrand.New(mrand.NewSource(50))
	for name, f := range presetFields(t) {
		undecided := 0
		for i := 0; i < n; i++ {
			if !checkJacobi(t, f, new(big.Int).Rand(rng, f.p)) {
				undecided++
			}
		}
		t.Logf("%s: %d of %d undecided within %d batches", name, undecided, n, f.jacobiBatches)
		if undecided > n/100 {
			t.Errorf("%s: %d of %d undecided: the batch bound is too tight", name, undecided, n)
		}
	}
}

// TestJacobiExhaustiveToyFields takes every residue of the two toy fields
// the reference pairing runs on, zero included.
func TestJacobiExhaustiveToyFields(t *testing.T) {
	for _, p := range []int64{1051, 6311} {
		f := MustField(big.NewInt(p))
		for v := int64(0); v < p; v++ {
			if !checkJacobi(t, f, big.NewInt(v)) {
				t.Fatalf("p = %d: Jacobi(%d) undecided", p, v)
			}
		}
	}
}

// TestJacobiEdgeValues takes 0, 1, −1, 2 and (p−1)/2 on every width
// diffFields spans: p ≡ 3 (mod 4), so −1 is a non-square.
func TestJacobiEdgeValues(t *testing.T) {
	for _, f := range diffFields(t) {
		pm1 := new(big.Int).Sub(f.p, big.NewInt(1))
		for _, v := range []*big.Int{big.NewInt(0), big.NewInt(1), pm1, big.NewInt(2), new(big.Int).Rsh(pm1, 1)} {
			if !checkJacobi(t, f, v) {
				t.Fatalf("p = %d bits: Jacobi(%v) undecided", f.p.BitLen(), v)
			}
		}
		if minus := f.One().Neg(); minus.Jacobi() != -1 {
			t.Fatalf("p = %d bits: Jacobi(−1) = %d, want −1", f.p.BitLen(), minus.Jacobi())
		}
	}
}

// FuzzJacobi is the differential target for the CI fuzz smoke: fuzzed
// bytes, read as one integer and reduced mod each preset modulus and each
// toy modulus, must give big.Jacobi's symbol wherever the walk decides.
func FuzzJacobi(f *testing.F) {
	fields := append(diffFields(f)[1:4], MustField(big.NewInt(1051)), MustField(big.NewInt(6311)))
	f.Add([]byte{})
	f.Add([]byte{1})
	seed := make([]byte, 128)
	for i := range seed {
		seed[i] = 0xff
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := new(big.Int).SetBytes(raw)
		for _, fld := range fields {
			checkJacobi(t, fld, v)
		}
	})
}
