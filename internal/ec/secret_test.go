package ec

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// scalarOf returns k mod q as a Scalar, through the byte decoder.
func scalarOf(t testing.TB, c *Curve, k *big.Int) Scalar {
	t.Helper()
	s, err := c.ScalarFromBytes(new(big.Int).Mod(k, c.Q).FillBytes(make([]byte, c.ScalarLen())))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bigOf returns k as a big.Int, through the byte encoder.
func bigOf(c *Curve, k Scalar) *big.Int { return new(big.Int).SetBytes(c.ScalarBytes(k)) }

// TestMultipliersAgree cross-checks every multiplier — sliding-window
// ScalarMult, constant-schedule ScalarMultSecret, fixed-base Comb.Mul —
// against the reference double-and-add, over the edge cases (k = 0,
// k < 0, k = q, k > q; the secret paths take them reduced mod q) and a
// spread of random scalars beyond q.
func TestMultipliersAgree(t *testing.T) {
	c := smallCurve(t)
	g := subgroupGen(t, c)
	comb := c.NewComb(g)

	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(3),
		big.NewInt(-1),
		big.NewInt(-7),
		new(big.Int).Set(c.Q),
		new(big.Int).Sub(c.Q, big.NewInt(1)),
		new(big.Int).Add(c.Q, big.NewInt(1)),
		new(big.Int).Neg(c.Q),
		new(big.Int).Add(new(big.Int).Lsh(c.Q, 1), big.NewInt(1)), // 2q+1
		new(big.Int).Mul(c.Q, big.NewInt(5)),
	}
	bound := new(big.Int).Lsh(c.Q, 2) // random scalars in [0, 4q)
	for i := 0; i < 200; i++ {
		k, err := rand.Int(rand.Reader, bound)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, k)
	}

	for _, k := range cases {
		want := c.scalarMultBinary(g, k)
		if got := c.ScalarMult(g, k); !got.Equal(want) {
			t.Fatalf("ScalarMult(g, %v) = %v, want %v", k, got, want)
		}
		// (k mod q)·g equals k·g for any point of order q.
		ks := scalarOf(t, c, k)
		if got := c.ScalarMultSecret(g, ks); !got.Equal(want) {
			t.Fatalf("ScalarMultSecret(g, %v) = %v, want %v", k, got, want)
		}
		if got := comb.Mul(ks); !got.Equal(want) {
			t.Fatalf("Comb.Mul(%v) = %v, want %v", k, got, want)
		}
	}
}

// TestMultipliersAtInfinity pins the p = ∞ edge for all paths.
func TestMultipliersAtInfinity(t *testing.T) {
	c := smallCurve(t)
	inf := c.Infinity()
	for _, k := range []*big.Int{big.NewInt(0), big.NewInt(7), new(big.Int).Neg(c.Q)} {
		if !c.ScalarMult(inf, k).Inf {
			t.Errorf("ScalarMult(∞, %v) not ∞", k)
		}
		if !c.ScalarMultSecret(inf, scalarOf(t, c, k)).Inf {
			t.Errorf("ScalarMultSecret(∞, %v) not ∞", k)
		}
	}
	comb := c.NewComb(inf)
	if !comb.Mul(scalarOf(t, c, big.NewInt(5))).Inf {
		t.Error("Comb over ∞ must return ∞")
	}
	if !comb.base.Inf {
		t.Error("the comb lost its base point")
	}
}

// TestScalarMultOffSubgroupPoint checks the public multiplier on a point
// outside the order-q subgroup (where the secret path's mod-q
// normalization would be unsound and is documented as unsupported).
func TestScalarMultOffSubgroupPoint(t *testing.T) {
	c := smallCurve(t)
	p := offSubgroupPoint(t, c)
	for i := int64(0); i < 40; i++ {
		k := big.NewInt(i - 8)
		want := c.scalarMultBinary(p, k)
		if got := c.ScalarMult(p, k); !got.Equal(want) {
			t.Fatalf("ScalarMult(p, %v) = %v, want %v", k, got, want)
		}
	}
}

// TestRecodeSignedRoundTrip verifies the limb-domain digit decomposition:
// fixed digit count, every digit odd and in range, and the weighted digit
// sum congruent to the input scalar mod q — i.e. the recoding picked the
// odd representative kmod + q·2^(kmod mod 2) ∈ (0, 3q].
func TestRecodeSignedRoundTrip(t *testing.T) {
	c := smallCurve(t)
	n := c.sc.digits
	threeQ := new(big.Int).Mul(c.Q, big.NewInt(3))
	for i := 0; i < 500; i++ {
		k, err := rand.Int(rand.Reader, c.Q)
		if err != nil {
			t.Fatal(err)
		}
		var buf SecretDigits
		digits := c.RecodeSecretScalar(scalarOf(t, c, k), &buf)
		if len(digits) != n {
			t.Fatalf("RecodeSecretScalar(%v): %d digits, want %d", k, len(digits), n)
		}
		sum := new(big.Int)
		for j := n - 1; j >= 0; j-- {
			sum.Lsh(sum, secretWindow)
			sum.Add(sum, big.NewInt(digits[j]))
			d := digits[j]
			if d < 0 {
				d = -d
			}
			if d&1 != 1 || d >= 1<<secretWindow {
				t.Fatalf("digit %d for %v out of range: %d", j, k, digits[j])
			}
		}
		if sum.Bit(0) != 1 {
			t.Fatalf("digit sum %v of %v is even", sum, k)
		}
		if sum.Sign() <= 0 || sum.Cmp(threeQ) > 0 {
			t.Fatalf("digit sum %v of %v outside (0, 3q]", sum, k)
		}
		if new(big.Int).Mod(sum, c.Q).Cmp(k) != 0 {
			t.Fatalf("digits of %v sum to %v ≢ k (mod q)", k, sum)
		}
	}
}

// TestScalarMultSecretSum cross-checks the limb-domain scalar addition
// feeding the secret multiplier — the IBS response (r + h)·d_ID — against
// computing (k1+k2) mod q with math/big, over edge pairs that exercise
// the conditional −q correction and the zero sum.
func TestScalarMultSecretSum(t *testing.T) {
	c := smallCurve(t)
	g := subgroupGen(t, c)
	qm1 := new(big.Int).Sub(c.Q, big.NewInt(1))
	pairs := [][2]*big.Int{
		{big.NewInt(0), big.NewInt(0)},
		{big.NewInt(1), big.NewInt(0)},
		{big.NewInt(1), qm1}, // sum ≡ 0 (mod q)
		{qm1, qm1},           // wraps past q
	}
	for i := 0; i < 100; i++ {
		k1, err := rand.Int(rand.Reader, c.Q)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := rand.Int(rand.Reader, c.Q)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, [2]*big.Int{k1, k2})
	}
	for _, pr := range pairs {
		sum := new(big.Int).Add(pr[0], pr[1])
		want := c.scalarMultBinary(g, sum.Mod(sum, c.Q))
		got := c.ScalarMultSecret(g, c.ScalarAdd(scalarOf(t, c, pr[0]), scalarOf(t, c, pr[1])))
		if !got.Equal(want) {
			t.Fatalf("ScalarMultSecret(g, %v + %v) = %v, want %v", pr[0], pr[1], got, want)
		}
	}
}

// TestSubgroupPointFromBytes exercises the hardened decode boundary: a
// subgroup point round-trips, an on-curve point outside the subgroup is
// rejected, and infinity (trivially in the subgroup) passes.
func TestSubgroupPointFromBytes(t *testing.T) {
	c := smallCurve(t)
	g := subgroupGen(t, c)
	got, err := c.SubgroupPointFromBytes(c.Bytes(g))
	if err != nil {
		t.Fatalf("subgroup point rejected: %v", err)
	}
	if !got.Equal(g) {
		t.Fatal("subgroup point did not round-trip")
	}

	bad := offSubgroupPoint(t, c)
	if _, err := c.SubgroupPointFromBytes(c.Bytes(bad)); err == nil {
		t.Fatal("off-subgroup point accepted")
	}
	// Still decodable by the permissive decoder, proving the rejection is
	// the subgroup check and not a malformed encoding.
	if _, err := c.PointFromBytes(c.Bytes(bad)); err != nil {
		t.Fatalf("off-subgroup point is on-curve and must decode permissively: %v", err)
	}

	if _, err := c.SubgroupPointFromBytes([]byte{0}); err != nil {
		t.Fatalf("infinity rejected: %v", err)
	}
}

// offSubgroupPoint returns an on-curve point NOT in the order-q subgroup
// (order divisible by a cofactor factor), found by brute force on the
// small curve.
func offSubgroupPoint(t *testing.T, c *Curve) Point {
	t.Helper()
	for x := int64(1); x < 1051; x++ {
		xe := c.F.FromInt64(x)
		rhs := xe.Square().Mul(xe).Add(xe)
		y, ok := rhs.Sqrt()
		if !ok || y.IsZero() {
			continue
		}
		p, err := c.NewPoint(xe, y)
		if err != nil {
			t.Fatal(err)
		}
		if !c.ScalarBaseOrderCheck(p) {
			return p
		}
	}
	t.Fatal("no off-subgroup point found")
	return Point{}
}

// scalarMultBinary is the textbook double-and-add ScalarMult replaced.
// It lives here as the independent reference the multiplier cross-check
// tests compare ScalarMult, ScalarMultSecret, and Comb.Mul against.
func (c *Curve) scalarMultBinary(p Point, k *big.Int) Point {
	if p.Inf || k.Sign() == 0 {
		return c.Infinity()
	}
	kk := k
	if k.Sign() < 0 {
		kk = new(big.Int).Neg(k)
		p = p.Neg()
	}
	j := c.toJacobian(p)
	r := c.jacInfinity()
	for i := kk.BitLen() - 1; i >= 0; i-- {
		jacDouble(&r, &r)
		if kk.Bit(i) == 1 {
			c.jacAdd(&r, &r, &j)
		}
	}
	return c.fromJacobian(&r)
}
