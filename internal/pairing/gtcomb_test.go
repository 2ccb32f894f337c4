package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
)

// gtExpCases are the exponents every table check runs: 0, 1, 2, 15, 16
// and q − 1 (a digit boundary and the largest scalar), low Hamming weight
// (single bits near the top and the bottom), high Hamming weight (every
// bit below q's top one, and q − 1 with its low byte set), and random.
func gtExpCases(t *testing.T, q *big.Int) []*big.Int {
	t.Helper()
	n := q.BitLen()
	qm1 := new(big.Int).Sub(q, big.NewInt(1))
	cases := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16), qm1,
		new(big.Int).Lsh(big.NewInt(1), uint(n-2)),
		new(big.Int).Lsh(big.NewInt(1), uint(n/2)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(n-1)), big.NewInt(1)),
		new(big.Int).Or(qm1, big.NewInt(0xff)),
	}
	for i := 0; i < 16; i++ {
		k, err := rand.Int(rand.Reader, q)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, k)
	}
	return cases
}

// checkGTComb checks GTComb.ExpSecret ≡ GTExpSecret ≡ square-and-multiply
// for the base g over every k in ks, each reduced mod q.
func checkGTComb(t *testing.T, name string, e *Pairing, g GT, ks []*big.Int) {
	t.Helper()
	c := e.Curve
	comb := e.NewGTComb(g)
	var buf ec.SecretDigits
	if want := len(c.RecodeSecretScalar(ec.Scalar{}, &buf)); len(comb.tbl) != want {
		t.Fatalf("%s: table of %d rows, want one per recoded digit (%d)", name, len(comb.tbl), want)
	}
	for _, k := range ks {
		kq := new(big.Int).Mod(k, c.Q)
		ks, err := c.ScalarFromBytes(kq.FillBytes(make([]byte, c.ScalarLen())))
		if err != nil {
			t.Fatal(err)
		}
		want := g.Exp(kq)
		if got := comb.ExpSecret(ks); !got.Equal(want) {
			t.Fatalf("%s: GTComb.ExpSecret(%v) ≠ g^k", name, kq)
		}
		if got := e.GTExpSecret(g, ks); !got.Equal(want) {
			t.Fatalf("%s: GTExpSecret(g, %v) ≠ g^k", name, kq)
		}
	}
}

// TestGTCombMatchesExp: the fixed-base table gives the reference power on
// every preset, over the edge and random exponents of gtExpCases.
func TestGTCombMatchesExp(t *testing.T) {
	for name, pp := range Presets {
		sys := pp.MustSystem()
		g := sys.G1()
		checkGTComb(t, name, sys.Pairing, sys.Pair(g, g), gtExpCases(t, sys.Curve.Q))
	}
}

// TestGTCombEveryExponent runs every exponent of the two q = 263 toy
// curves, where the recoding has four digits and a row's sixteenth power
// wraps past q, against two bases: a pairing value and its inverse.
func TestGTCombEveryExponent(t *testing.T) {
	for _, p := range []int64{1051, 6311} {
		c := ec.MustCurve(ff.MustField(big.NewInt(p)), big.NewInt(263))
		e := New(c)
		g, err := c.HashToSubgroup("gtcomb", []byte("gen"))
		if err != nil {
			t.Fatal(err)
		}
		var ks []*big.Int
		for k := int64(0); k < 263; k++ {
			ks = append(ks, big.NewInt(k))
		}
		base := e.Pair(g, g)
		if base.IsOne() {
			t.Fatalf("p = %d: degenerate base", p)
		}
		checkGTComb(t, "q = 263", e, base, ks)
		checkGTComb(t, "q = 263, inverse base", e, base.Inv(), ks)
	}
}

// TestSecretKernelsDoNotAllocate: the four kernels that consume a secret
// recoding keep its digits on their stack (ec.SecretDigits), on every
// preset, so a secret exponentiation or multiplication allocates nothing.
func TestSecretKernelsDoNotAllocate(t *testing.T) {
	var sinkP ec.Point
	for name, pp := range Presets {
		sys := pp.MustSystem()
		k, err := sys.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		g, gt := sys.G1(), sys.Pair(sys.G1(), sys.G1())
		comb, gtComb := sys.G1Comb(), sys.NewGTComb(gt)
		for kernel, fn := range map[string]func(){
			"Comb.Mul":         func() { sinkP = comb.Mul(k) },
			"ScalarMultSecret": func() { sinkP = sys.Curve.ScalarMultSecret(g, k) },
			"GTExpSecret":      func() { sinkGT = sys.GTExpSecret(gt, k) },
			"GTComb.ExpSecret": func() { sinkGT = gtComb.ExpSecret(k) },
		} {
			if n := testing.AllocsPerRun(5, fn); n != 0 {
				t.Errorf("%s: %s allocates %.0f times per call, want 0", name, kernel, n)
			}
		}
	}
	_ = sinkP
}
