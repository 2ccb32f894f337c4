package pairing

import (
	"fmt"
	"math/big"
	"testing"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
)

// refPairing is a deliberately naive second implementation of the
// modified Tate pairing ê(P, R) = f_{q,P}(φ(R))^((p²−1)/q), written from
// the textbook and sharing no code with G1Precomp, miller or finalExpBy:
// affine math/big arithmetic, a double-and-add Miller loop that keeps
// every vertical-line denominator, and a plain square-and-multiply final
// exponentiation in F_p² = F_p[i]/(i² + 1). It is the oracle the decoders'
// rule rests on (DESIGN.md §9): a point only ever paired as a second
// argument needs no order-q check because its part of order dividing h
// pairs to 1 — here that is computed, not assumed.
type refPairing struct {
	p, q, exp *big.Int // exp = (p² − 1)/q
}

func newRefPairing(c *ec.Curve) *refPairing {
	p := c.F.P()
	exp := new(big.Int).Mul(p, p)
	exp.Sub(exp, big.NewInt(1))
	exp.Quo(exp, c.Q)
	return &refPairing{p: p, q: c.Q, exp: exp}
}

// refE2 is a + b·i in F_p².
type refE2 struct{ a, b *big.Int }

// refPoint is an affine point of E(F_p), or ∞.
type refPoint struct {
	x, y *big.Int
	inf  bool
}

func toRef(pt ec.Point) refPoint {
	if pt.Inf {
		return refPoint{inf: true}
	}
	return refPoint{x: pt.X.BigInt(), y: pt.Y.BigInt()}
}

func (r *refPairing) mod(x *big.Int) *big.Int { return x.Mod(x, r.p) }

func (r *refPairing) inv(x *big.Int) *big.Int {
	v := new(big.Int).ModInverse(x, r.p)
	if v == nil {
		panic(fmt.Sprintf("refPairing: %v has no inverse mod p", x))
	}
	return v
}

func (r *refPairing) mul2(x, y refE2) refE2 {
	ac := new(big.Int).Mul(x.a, y.a)
	bd := new(big.Int).Mul(x.b, y.b)
	ad := new(big.Int).Mul(x.a, y.b)
	bc := new(big.Int).Mul(x.b, y.a)
	return refE2{r.mod(ac.Sub(ac, bd)), r.mod(ad.Add(ad, bc))}
}

func (r *refPairing) exp2(x refE2, k *big.Int) refE2 {
	acc := refE2{big.NewInt(1), big.NewInt(0)}
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = r.mul2(acc, acc)
		if k.Bit(i) == 1 {
			acc = r.mul2(acc, x)
		}
	}
	return acc
}

// add is the affine chord-and-tangent law on y² = x³ + x.
func (r *refPairing) add(s, t refPoint) refPoint {
	switch {
	case s.inf:
		return t
	case t.inf:
		return s
	case s.x.Cmp(t.x) == 0 && r.mod(new(big.Int).Add(s.y, t.y)).Sign() == 0:
		return refPoint{inf: true}
	}
	lam := r.slope(s, t)
	x := new(big.Int).Mul(lam, lam)
	x = r.mod(x.Sub(x, new(big.Int).Add(s.x, t.x)))
	y := new(big.Int).Sub(s.x, x)
	y.Mul(y, lam)
	return refPoint{x: x, y: r.mod(y.Sub(y, s.y))}
}

// slope of the line through s and t (the tangent when they are equal);
// neither is ∞ and t ≠ −s.
func (r *refPairing) slope(s, t refPoint) *big.Int {
	if s.x.Cmp(t.x) == 0 {
		num := new(big.Int).Mul(s.x, s.x)
		num.Mul(num, big.NewInt(3))
		num.Add(num, big.NewInt(1))
		return r.mod(num.Mul(num, r.inv(r.mod(new(big.Int).Lsh(s.y, 1)))))
	}
	num := new(big.Int).Sub(t.y, s.y)
	return r.mod(num.Mul(num, r.inv(r.mod(new(big.Int).Sub(t.x, s.x)))))
}

// refLine is one factor l_{s,t}/v_{s+t} of the Miller function: the line
// through s and t (the tangent when a doubling step squares f first) over
// the vertical through s + t.
type refLine struct {
	double bool
	x0, y0 *big.Int // s
	lam    *big.Int // the slope; nil for the vertical x = x0 (t = −s)
	vx     *big.Int // x of s + t; nil when s + t = ∞ and there is no denominator
}

// walk runs Miller's double-and-add over the bits of q from P, recording
// each line; it depends on P alone.
func (r *refPairing) walk(pt refPoint) []refLine {
	var lines []refLine
	step := func(s, t refPoint, double bool) refPoint {
		sum := r.add(s, t)
		l := refLine{double: double, x0: s.x, y0: s.y}
		if !sum.inf {
			l.lam, l.vx = r.slope(s, t), sum.x
		}
		lines = append(lines, l)
		return sum
	}
	t := pt
	for i := r.q.BitLen() - 2; i >= 0; i-- {
		t = step(t, t, true)
		if r.q.Bit(i) == 1 {
			t = step(t, pt, false)
		}
	}
	if !t.inf {
		panic("refPairing: P does not have order q")
	}
	return lines
}

// eval is f_{q,P}(S)^((p²−1)/q) at S = φ(R) = (−x_R, i·y_R) for a finite R:
// the numerators multiply in F_p², the verticals' values (in F_p, as S's
// x is) in a separate denominator divided out before the exponentiation.
func (r *refPairing) eval(lines []refLine, rt refPoint) refE2 {
	xs := r.mod(new(big.Int).Neg(rt.x))
	num, den := refE2{big.NewInt(1), big.NewInt(0)}, big.NewInt(1)
	for _, l := range lines {
		if l.double {
			num = r.mul2(num, num)
			den = r.mod(den.Mul(den, den))
		}
		dx := new(big.Int).Sub(xs, l.x0)
		// The vertical x − x0, or y − y0 − λ(x − x0) with y = i·y_R.
		val := refE2{r.mod(dx), big.NewInt(0)}
		if l.lam != nil {
			re := new(big.Int).Mul(l.lam, dx)
			re.Add(re, l.y0)
			val = refE2{r.mod(re.Neg(re)), rt.y}
		}
		num = r.mul2(num, val)
		if l.vx != nil {
			den = r.mod(den.Mul(den, new(big.Int).Sub(xs, l.vx)))
		}
	}
	di := r.inv(den)
	f := refE2{r.mod(num.a.Mul(num.a, di)), r.mod(num.b.Mul(num.b, di))}
	return r.exp2(f, r.exp)
}

// pair is ê(P, R) for P of order q and any R of E(F_p).
func (r *refPairing) pair(pt, rt refPoint) refE2 {
	if pt.inf || rt.inf {
		return refE2{big.NewInt(1), big.NewInt(0)}
	}
	return r.eval(r.walk(pt), rt)
}

func (r *refPairing) equal(x refE2, g GT) bool {
	v := g.E2()
	return x.a.Cmp(v.A.BigInt()) == 0 && x.b.Cmp(v.B.BigInt()) == 0
}

// projector is h·(h⁻¹ mod q): multiplying by it keeps a point's G1
// component and kills its component of order dividing h.
func projector(c *ec.Curve) *big.Int {
	hInv := new(big.Int).ModInverse(c.H, c.Q)
	return hInv.Mul(hInv, c.H)
}

// allFinitePoints enumerates E(F_p) \ {∞} on a toy curve.
func allFinitePoints(t *testing.T, c *ec.Curve) []ec.Point {
	t.Helper()
	var pts []ec.Point
	for x := int64(0); x < c.F.P().Int64(); x++ {
		xe := c.F.FromInt64(x)
		y, ok := xe.Square().Mul(xe).Add(xe).Sqrt()
		if !ok {
			continue
		}
		ys := []ff.Element{y}
		if !y.IsZero() {
			ys = append(ys, y.Neg())
		}
		for _, y := range ys {
			pt, err := c.NewPoint(xe, y)
			if err != nil {
				t.Fatal(err)
			}
			pts = append(pts, pt)
		}
	}
	if int64(len(pts)) != c.F.P().Int64() {
		t.Fatalf("p = %v: %d finite points, want p", c.F.P(), len(pts))
	}
	return pts
}

// TestReferencePairingExhaustive pairs four order-q first arguments
// against every finite point of two toy curves with q = 263 — p = 1051
// (h = 4) and p = 6311 (h = 24 = 8·3) — three ways: the precomputed-line
// pairing, the reference, and the pairing of R's G1 projection. All three
// agree on every pair, and the value is 1 exactly for the h − 1 finite
// points whose projection is ∞ (the 2-torsion point (0, 0) among them).
func TestReferencePairingExhaustive(t *testing.T) {
	pairs := 0
	for _, tc := range []struct{ p, torsion int64 }{{1051, 3}, {6311, 23}} {
		c := ec.MustCurve(ff.MustField(big.NewInt(tc.p)), big.NewInt(263))
		e, ref, proj := New(c), newRefPairing(c), projector(c)
		g, err := c.HashToSubgroup("refpair", []byte("gen"))
		if err != nil {
			t.Fatal(err)
		}
		points := allFinitePoints(t, c)
		projs := make([]ec.Point, len(points))
		torsion := 0
		for i, r := range points {
			if projs[i] = c.ScalarMult(r, proj); projs[i].Inf {
				torsion++
			}
		}
		if torsion != int(tc.torsion) {
			t.Fatalf("p = %d: %d finite points of order dividing h, want %d", tc.p, torsion, tc.torsion)
		}
		for _, k := range []int64{1, 2, 100, 262} {
			pt := c.ScalarMult(g, big.NewInt(k))
			pre, lines := e.G1Precomp(pt), ref.walk(toRef(pt))
			// Pair(P, ·) over the 263 points of G1, each computed once.
			byProj := make(map[string]GT)
			for i, r := range points {
				got := pre.Pair(r)
				if !ref.equal(ref.eval(lines, toRef(r)), got) {
					t.Fatalf("p = %d: G1Precomp(%d·G).Pair(%v) differs from the reference", tc.p, k, r)
				}
				key := string(c.Bytes(projs[i]))
				if _, ok := byProj[key]; !ok {
					byProj[key] = e.Pair(pt, projs[i])
				}
				if !got.Equal(byProj[key]) {
					t.Fatalf("p = %d: ê(%d·G, %v) differs from ê of its G1 projection %v", tc.p, k, r, projs[i])
				}
				if got.IsOne() != projs[i].Inf {
					t.Fatalf("p = %d: ê(%d·G, %v) is one = %v, projection is ∞ = %v", tc.p, k, r, got.IsOne(), projs[i].Inf)
				}
				pairs++
			}
		}
	}
	if pairs != 4*(1051+6311) {
		t.Fatalf("compared %d pairs", pairs)
	}
}

// TestReferencePairingPresets checks, on every preset, the honest pair
// ê(P, G) and an off-subgroup second argument R = G + T with T = q·S of
// order dividing h: the precomputed-line pairing, Pair and the reference
// agree, ê(P, R) = ê(P, G), and T and (0, 0) alone pair to 1.
func TestReferencePairingPresets(t *testing.T) {
	for name, sys := range presetSystems(t) {
		c := sys.Curve
		ref := newRefPairing(c)
		g := sys.G1()
		pt := c.ScalarMult(g, randBig(t, sys))
		tors := c.Infinity()
		for x := int64(1); tors.Inf; x++ {
			xe := c.F.FromInt64(x)
			if y, ok := xe.Square().Mul(xe).Add(xe).Sqrt(); ok {
				s, err := c.NewPoint(xe, y)
				if err != nil {
					t.Fatal(err)
				}
				tors = c.ScalarMult(s, c.Q)
			}
		}
		r := c.Add(g, tors)
		if got := c.ScalarMult(r, projector(c)); !got.Equal(g) {
			t.Fatalf("%s: G + q·S projects to %v, not G", name, got)
		}
		two, err := c.NewPoint(c.F.Zero(), c.F.Zero())
		if err != nil {
			t.Fatal(err)
		}
		pre, refP := sys.G1Precomp(pt), toRef(pt)
		want := sys.Pair(pt, g)
		for what, second := range map[string]ec.Point{"G": g, "G + q·S": r, "q·S": tors, "(0, 0)": two} {
			got := pre.Pair(second)
			if !ref.equal(ref.pair(refP, toRef(second)), got) || !got.Equal(sys.Pair(pt, second)) {
				t.Fatalf("%s: ê(P, %s) differs between G1Precomp, Pair and the reference", name, what)
			}
			if pure := what == "q·S" || what == "(0, 0)"; pure != got.IsOne() || !pure && !got.Equal(want) {
				t.Fatalf("%s: ê(P, %s) = %v; want ê(P, G) for a point projecting to G, 1 for pure torsion", name, what, got.E2())
			}
		}
	}
}
