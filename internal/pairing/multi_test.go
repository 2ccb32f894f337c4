package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"

	"mwskit/internal/ec"
)

// TestG1PrecompMatchesPair checks the precomputed-first-argument path
// against the one-shot pairing over random subgroup points, plus the
// infinity edges on both sides.
func TestG1PrecompMatchesPair(t *testing.T) {
	s := testSystem(t)
	g := s.G1()
	for i := 0; i < 8; i++ {
		a := randBig(t, s)
		p := s.Curve.ScalarMult(g, a)
		pre := s.G1Precomp(p)
		for j := 0; j < 4; j++ {
			b := randBig(t, s)
			q := s.Curve.ScalarMult(g, b)
			if got, want := pre.Pair(q), s.Pair(p, q); !got.Equal(want) {
				t.Fatalf("precomp pair mismatch for a=%v b=%v", a, b)
			}
		}
		if !pre.Pair(s.Curve.Infinity()).IsOne() {
			t.Fatal("precomp Pair(∞) ≠ 1")
		}
	}
	if !s.G1Precomp(s.Curve.Infinity()).Pair(g).IsOne() {
		t.Fatal("precomp over ∞ must pair to 1")
	}
}

// TestPairProductMatchesProductOfPairs checks the lockstep PairProduct
// over precomputed first arguments against the plain product of Pair
// results, including identity terms on either side and the
// signature-verification shape ê(P, Q)·ê(P, −Q) = 1.
func TestPairProductMatchesProductOfPairs(t *testing.T) {
	s := testSystem(t)
	g := s.G1()
	newPt := func() ec.Point {
		k := randBig(t, s)
		return s.Curve.ScalarMult(g, k)
	}

	ps := []ec.Point{newPt(), newPt(), newPt(), s.Curve.Infinity(), newPt()}
	qs := []ec.Point{newPt(), s.Curve.Infinity(), newPt(), newPt(), newPt()}
	ps[4] = ps[0] // the same lines may appear twice
	pres := make([]*G1Precomp, len(ps))
	want := s.GTOne()
	for i := range ps {
		pres[i] = s.G1Precomp(ps[i])
		want = want.Mul(s.Pair(ps[i], qs[i]))
	}
	if got := s.PairProduct(pres, qs); !got.Equal(want) {
		t.Fatal("PairProduct ≠ product of Pair results")
	}

	p, q := newPt(), newPt()
	pre := s.G1Precomp(p)
	if !s.PairProduct([]*G1Precomp{pre, pre}, []ec.Point{q, q.Neg()}).IsOne() {
		t.Fatal("ê(P,Q)·ê(P,−Q) ≠ 1")
	}
	if !s.PairProduct(nil, nil).IsOne() {
		t.Fatal("empty product ≠ 1")
	}
}

// TestGTExpSecretMatchesExp cross-checks the constant-time target-group
// exponentiation against the public square-and-multiply over edge scalars
// (0, 1, q−1, and q, beyond q and negatives, all reduced mod q into the
// Scalar) and random exponents.
func TestGTExpSecretMatchesExp(t *testing.T) {
	s := testSystem(t)
	g := s.G1()
	base := s.Pair(g, g)
	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(15),
		new(big.Int).Sub(s.Curve.Q, big.NewInt(1)),
		new(big.Int).Set(s.Curve.Q),
		new(big.Int).Add(s.Curve.Q, big.NewInt(7)),
		new(big.Int).Neg(big.NewInt(3)),
	}
	for i := 0; i < 40; i++ {
		k, err := rand.Int(rand.Reader, new(big.Int).Lsh(s.Curve.Q, 1))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, k)
	}
	for _, k := range cases {
		kq := new(big.Int).Mod(k, s.Curve.Q)
		ks, err := s.Curve.ScalarFromBytes(kq.FillBytes(make([]byte, s.Curve.ScalarLen())))
		if err != nil {
			t.Fatal(err)
		}
		want := base.Exp(kq)
		if got := s.GTExpSecret(base, ks); !got.Equal(want) {
			t.Fatalf("GTExpSecret(g, %v) ≠ g^(k mod q)", k)
		}
	}
}
