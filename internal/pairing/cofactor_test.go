package pairing

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
)

// hashedCurvePoint is the i-th test point of E(F_p): hashed onto the
// curve, not cofactor-cleared, so it almost surely has a component of
// order dividing h.
func hashedCurvePoint(t testing.TB, c *ec.Curve, i int) ec.Point {
	t.Helper()
	r, err := c.HashToCurvePoint("mwskit/pairing/cofactor-test/v1", []byte(fmt.Sprint(i)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPairCofactorMatchesClearedPair is the differential test of the
// identity PairCofactor stands on: for hashed curve points R, the cofactor
// carried through the final exponentiation gives the bytes that clearing
// it on the curve and pairing gives.
func TestPairCofactorMatchesClearedPair(t *testing.T) {
	for name, sys := range presetSystems(t) {
		n := 64
		if name == "bf112" && testing.Short() {
			n = 4
		}
		k, err := sys.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		p := sys.G1Comb().Mul(k)
		pre := sys.G1Precomp(p)
		for i := 0; i < n; i++ {
			r := hashedCurvePoint(t, sys.Curve, i)
			got := pre.PairCofactor(r).Bytes()
			want := sys.Pair(p, sys.Curve.ClearCofactor(r)).Bytes()
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: point %d: PairCofactor(R) differs from Pair(P, ClearCofactor(R))", name, i)
			}
		}
	}
}

// TestPairCofactorEdges covers the second arguments whose cleared image is
// the identity — ∞, the 2-torsion point (0, 0) whose Miller accumulator
// stays in F_p, and q·S of order dividing h — which must give exactly 1;
// a point already in G1, where the cofactor shows as the power h; and
// bilinearity in the precomputed argument.
func TestPairCofactorEdges(t *testing.T) {
	for name, sys := range presetSystems(t) {
		c := sys.Curve
		g := sys.G1()
		pre := sys.G1Precomp(g)
		one := sys.GTOne().Bytes()

		twoTorsion, err := c.NewPoint(c.F.Zero(), c.F.Zero())
		if err != nil {
			t.Fatal(err)
		}
		s := hashedCurvePoint(t, c, 0)
		qS := c.ScalarMult(s, c.Q)
		if qS.Inf || !c.ClearCofactor(qS).Inf {
			t.Fatalf("%s: q·S is not a finite point of order dividing h", name)
		}
		for what, r := range map[string]ec.Point{"∞": c.Infinity(), "(0, 0)": twoTorsion, "q·S": qS} {
			if got := pre.PairCofactor(r); !bytes.Equal(got.Bytes(), one) {
				t.Errorf("%s: PairCofactor(%s) = %x, want 1", name, what, got.Bytes())
			}
			if !pre.Pair(r).IsOne() {
				t.Errorf("%s: Pair(P, %s) ≠ 1: the order-h component must pair trivially", name, what)
			}
		}
		if !sys.G1Precomp(c.Infinity()).PairCofactor(s).IsOne() {
			t.Errorf("%s: PairCofactor over ∞ ≠ 1", name)
		}

		k, err := sys.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		inG1 := sys.G1Comb().Mul(k)
		if got, want := pre.PairCofactor(inG1), sys.Pair(g, inG1).Exp(c.H); !got.Equal(want) || got.IsOne() {
			t.Errorf("%s: PairCofactor(R) ≠ Pair(P, R)^h for R in G1", name)
		}

		p2 := c.ScalarMult(g, big.NewInt(5))
		sum := sys.G1Precomp(c.Add(g, p2)).PairCofactor(s)
		if prod := pre.PairCofactor(s).Mul(sys.G1Precomp(p2).PairCofactor(s)); !sum.Equal(prod) {
			t.Errorf("%s: PairCofactor not additive in the first argument", name)
		}
	}
}

// TestValidateRejectsCofactorDivisibleByQ crafts a parameter set with
// q² | p+1 (p = 199, q = 5, h = 40) and a genuine order-q generator: the
// cofactor identity needs gcd(h, q) = 1, so Validate must refuse it.
func TestValidateRejectsCofactorDivisibleByQ(t *testing.T) {
	pp := &Params{P: big.NewInt(199), Q: big.NewInt(5)}
	c := ec.MustCurve(ff.MustField(pp.P), pp.Q)
	for i := 0; i < 64 && pp.Gx == nil; i++ {
		// #E(F_199) = 200, so 40·R has order 1 or 5.
		if g := c.ClearCofactor(hashedCurvePoint(t, c, i)); !g.Inf {
			pp.Gx, pp.Gy = g.X.BigInt(), g.Y.BigInt()
		}
	}
	if pp.Gx == nil {
		t.Fatal("no order-5 point found")
	}
	err := pp.Validate()
	if err == nil || !strings.Contains(err.Error(), "cofactor") {
		t.Fatalf("Validate() = %v, want the cofactor refusal", err)
	}
}
