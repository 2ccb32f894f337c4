package pairing

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
)

// testSystem caches the instantiated test preset across tests.
var (
	sysOnce sync.Once
	sysVal  *System
)

func testSystem(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() { sysVal = ParamsTest.MustSystem() })
	return sysVal
}

func TestPresetsValidate(t *testing.T) {
	for name, pp := range Presets {
		name, pp := name, pp
		t.Run(name, func(t *testing.T) {
			if name == "bf112" && testing.Short() {
				t.Skip("1024-bit validation skipped in -short mode")
			}
			t.Parallel()
			if err := pp.Validate(); err != nil {
				t.Fatalf("preset %s invalid: %v", name, err)
			}
		})
	}
}

func TestGenerateSmallParams(t *testing.T) {
	pp, err := Generate(192, 96, rand.Reader)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := pp.Validate(); err != nil {
		t.Fatalf("generated params invalid: %v", err)
	}
	if pp.Q.BitLen() != 96 {
		t.Errorf("q has %d bits, want 96", pp.Q.BitLen())
	}
	if got := pp.P.BitLen(); got < 190 || got > 194 {
		t.Errorf("p has %d bits, want ≈192", got)
	}
}

func TestGenerateRejectsTinySizes(t *testing.T) {
	if _, err := Generate(40, 16, rand.Reader); err == nil {
		t.Fatal("tiny parameters accepted")
	}
}

func TestPairNonDegenerate(t *testing.T) {
	s := testSystem(t)
	g := s.G1()
	e := s.Pair(g, g)
	if e.IsOne() {
		t.Fatal("ê(G, G) = 1: degenerate pairing")
	}
	// The result must lie in μ_q: e^q = 1.
	if !e.Exp(s.Curve.Q).IsOne() {
		t.Fatal("pairing output not in the order-q subgroup")
	}
}

func TestPairWithIdentity(t *testing.T) {
	s := testSystem(t)
	g := s.G1()
	if !s.Pair(s.Curve.Infinity(), g).IsOne() {
		t.Error("ê(∞, G) != 1")
	}
	if !s.Pair(g, s.Curve.Infinity()).IsOne() {
		t.Error("ê(G, ∞) != 1")
	}
}

func TestBilinearity(t *testing.T) {
	s := testSystem(t)
	g := s.G1()
	base := s.Pair(g, g)

	for i := 0; i < 8; i++ {
		a := randBig(t, s)
		b := randBig(t, s)
		aG := s.Curve.ScalarMult(g, a)
		bG := s.Curve.ScalarMult(g, b)

		// ê(aG, bG) = ê(G, G)^(ab)
		lhs := s.Pair(aG, bG)
		ab := new(big.Int).Mul(a, b)
		ab.Mod(ab, s.Curve.Q)
		rhs := base.Exp(ab)
		if !lhs.Equal(rhs) {
			t.Fatalf("bilinearity failed: ê(aG,bG) != ê(G,G)^ab (a=%v b=%v)", a, b)
		}

		// ê(aG, G) = ê(G, aG) — symmetry of the modified pairing.
		if !s.Pair(aG, g).Equal(s.Pair(g, aG)) {
			t.Fatal("modified pairing not symmetric")
		}
	}
}

func TestBilinearityInFirstArgument(t *testing.T) {
	s := testSystem(t)
	g := s.G1()
	a := randBig(t, s)
	b := randBig(t, s)
	p1 := s.Curve.ScalarMult(g, a)
	p2 := s.Curve.ScalarMult(g, b)
	// ê(P1 + P2, G) = ê(P1, G) · ê(P2, G)
	lhs := s.Pair(s.Curve.Add(p1, p2), g)
	rhs := s.Pair(p1, g).Mul(s.Pair(p2, g))
	if !lhs.Equal(rhs) {
		t.Fatal("pairing not additive in the first argument")
	}
}

// TestDHExchange exercises the identity at the heart of the paper's
// protocol (§V.D): the RC recomputes the DC's key via
// ê(rP, sI) = ê(sP, rI) = ê(P, I)^(rs).
func TestDHExchange(t *testing.T) {
	s := testSystem(t)
	g := s.G1()
	// I is an arbitrary subgroup point (the hashed attribute).
	i, err := s.Curve.HashToSubgroup("attr", []byte("ELECTRIC-APT-SV-CA||nonce"))
	if err != nil {
		t.Fatal(err)
	}
	sMaster := randBig(t, s) // PKG master secret
	r := randBig(t, s)       // per-message randomness

	sP := s.Curve.ScalarMult(g, sMaster) // public parameter
	rI := s.Curve.ScalarMult(i, r)
	kSender := s.Pair(sP, rI) // what the smart device computes

	rP := s.Curve.ScalarMult(g, r)       // transmitted with the ciphertext
	sI := s.Curve.ScalarMult(i, sMaster) // private key from the PKG
	kReceiver := s.Pair(rP, sI)          // what the RC computes

	if !kSender.Equal(kReceiver) {
		t.Fatal("ê(sP, rI) != ê(rP, sI): protocol key agreement broken")
	}
	if kSender.IsOne() {
		t.Fatal("degenerate protocol key")
	}
}

func TestGTOperations(t *testing.T) {
	s := testSystem(t)
	g := s.G1()
	e := s.Pair(g, g)

	if !e.Mul(e.Inv()).IsOne() {
		t.Error("g·g⁻¹ != 1 in GT")
	}
	if !e.Exp(big.NewInt(0)).IsOne() {
		t.Error("g^0 != 1 in GT")
	}
	// Negative exponent: g^(−k) = (g^k)⁻¹.
	k := big.NewInt(12345)
	if !e.Exp(new(big.Int).Neg(k)).Equal(e.Exp(k).Inv()) {
		t.Error("negative exponent broken in GT")
	}
}

func TestPairDeterministic(t *testing.T) {
	s := testSystem(t)
	g := s.G1()
	a := randBig(t, s)
	p := s.Curve.ScalarMult(g, a)
	if !s.Pair(p, g).Equal(s.Pair(p, g)) {
		t.Fatal("pairing not deterministic")
	}
}

func TestValidateRejectsCorruptedParams(t *testing.T) {
	bad := &Params{
		P:  new(big.Int).Add(ParamsTest.P, big.NewInt(4)), // almost surely composite
		Q:  ParamsTest.Q,
		Gx: ParamsTest.Gx,
		Gy: ParamsTest.Gy,
	}
	if err := bad.Validate(); err == nil {
		t.Fatal("corrupted params validated")
	}
	bad2 := &Params{
		P:  ParamsTest.P,
		Q:  ParamsTest.Q,
		Gx: new(big.Int).Add(ParamsTest.Gx, big.NewInt(1)),
		Gy: ParamsTest.Gy,
	}
	if err := bad2.Validate(); err == nil {
		t.Fatal("off-curve generator validated")
	}
	if err := (&Params{}).Validate(); err == nil {
		t.Fatal("empty params validated")
	}
}

func TestSystemGeneratorProperties(t *testing.T) {
	s := testSystem(t)
	g := s.G1()
	if g.Inf {
		t.Fatal("generator is the identity")
	}
	if !s.Curve.IsOnCurve(g) {
		t.Fatal("generator off curve")
	}
	if !s.Curve.ScalarBaseOrderCheck(g) {
		t.Fatal("generator order wrong")
	}
}

// randBig draws a RandomScalar and returns it as the big.Int the tests'
// reference arithmetic (public ScalarMult, GT.Exp, products mod q) takes.
func randBig(t testing.TB, s *System) *big.Int {
	t.Helper()
	k, err := s.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return new(big.Int).SetBytes(s.Curve.ScalarBytes(k))
}

func TestRandomScalarRange(t *testing.T) {
	s := testSystem(t)
	for i := 0; i < 32; i++ {
		k := randBig(t, s)
		if k.Sign() <= 0 || k.Cmp(s.Curve.Q) >= 0 {
			t.Fatalf("scalar %v out of (0, q)", k)
		}
	}
}

// countingStream is a deterministic byte stream (a 64-bit LCG's top
// byte) that counts what it hands out.
type countingStream struct {
	x uint64
	n int
}

func (s *countingStream) Read(p []byte) (int, error) {
	for i := range p {
		s.x = s.x*6364136223846793005 + 1442695040888963407
		p[i] = byte(s.x >> 56)
	}
	s.n += len(p)
	return len(p), nil
}

// TestRandomScalarDrawParity holds the limb-domain draw to the one it
// replaced, rand.Int(r, q−1) + 1: over the same stream it returns the
// same scalars and consumes the same bytes — byte count, top-bit mask,
// reject-and-redraw — on every preset and the q = 263 curve. The bfibe
// and peks goldens pin values drawn from such a stream.
func TestRandomScalarDrawParity(t *testing.T) {
	curves := map[string]*ec.Curve{"q263": ec.MustCurve(ff.MustField(big.NewInt(1051)), big.NewInt(263))}
	for name, sys := range presetSystems(t) {
		curves[name] = sys.Curve
	}
	for name, c := range curves {
		qm1 := new(big.Int).Sub(c.Q, big.NewInt(1))
		got, want := &countingStream{x: 1}, &countingStream{x: 1}
		const draws = 2000
		for i := 0; i < draws; i++ {
			k, err := c.RandomScalar(got)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := rand.Int(want, qm1)
			if err != nil {
				t.Fatal(err)
			}
			ref.Add(ref, big.NewInt(1))
			if kb := new(big.Int).SetBytes(c.ScalarBytes(k)); kb.Cmp(ref) != 0 || got.n != want.n {
				t.Fatalf("%s: draw %d = %v after %d bytes, rand.Int gives %v after %d", name, i, kb, got.n, ref, want.n)
			}
		}
		if perDraw := (new(big.Int).Sub(c.Q, big.NewInt(2)).BitLen() + 7) / 8; got.n == draws*perDraw {
			t.Errorf("%s: %d draws never redrew; the stream does not cover rejection", name, draws)
		}
	}
}

// TestMillerAgainstTinyCurve cross-checks the full pairing pipeline on a
// hand-checkable curve: p=1051, q=263 (the same curve internal/ec tests
// use), where bilinearity across many scalars is cheap to verify
// exhaustively-ish.
func TestMillerAgainstTinyCurve(t *testing.T) {
	f := ff.MustField(big.NewInt(1051))
	c := ec.MustCurve(f, big.NewInt(263))
	g, err := c.HashToSubgroup("tiny", []byte("gen"))
	if err != nil {
		t.Fatal(err)
	}
	e := New(c)
	base := e.Pair(g, g)
	if base.IsOne() {
		t.Fatal("tiny curve pairing degenerate")
	}
	for a := int64(1); a <= 12; a++ {
		for b := int64(1); b <= 12; b++ {
			lhs := e.Pair(c.ScalarMult(g, big.NewInt(a)), c.ScalarMult(g, big.NewInt(b)))
			rhs := base.Exp(big.NewInt(a * b))
			if !lhs.Equal(rhs) {
				t.Fatalf("tiny curve bilinearity failed at a=%d b=%d", a, b)
			}
		}
	}
}
