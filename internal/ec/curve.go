// Package ec implements arithmetic on the supersingular elliptic curve
//
//	E: y² = x³ + x  over F_p,  p ≡ 3 (mod 4)
//
// used by the pairing layer. The curve is supersingular with
// #E(F_p) = p + 1 and embedding degree 2, which is exactly the family of
// curves Boneh and Franklin proposed for identity-based encryption. The
// order-q subgroup (q | p+1) serves as the pairing group G1; the distortion
// map φ(x, y) = (−x, i·y) carries G1 into a linearly independent subgroup
// over F_p², making the modified Tate pairing non-degenerate on G1×G1.
//
// Points are immutable values; arithmetic is affine for clarity with a
// Jacobian fast path for scalar multiplication.
package ec

import (
	"errors"
	"fmt"
	"math/big"

	"mwskit/internal/ff"
	"mwskit/internal/obsv"
)

// Curve describes E: y² = x³ + x over a specific prime field together with
// the subgroup order q and cofactor h = (p+1)/q. Immutable after creation.
type Curve struct {
	F *ff.Field // base field F_p
	Q *big.Int  // prime order of the pairing subgroup G1
	H *big.Int  // cofactor, (p+1)/q

	sc *scalarCtx // limb-domain recoding context for secret scalars
}

// NewCurve validates that q·h = p+1 and returns the curve descriptor.
func NewCurve(f *ff.Field, q *big.Int) (*Curve, error) {
	if f == nil || q == nil || q.Sign() <= 0 {
		return nil, errors.New("ec: nil field or non-positive subgroup order")
	}
	pp1 := new(big.Int).Add(f.P(), big.NewInt(1))
	h, rem := new(big.Int).QuoRem(pp1, q, new(big.Int))
	if rem.Sign() != 0 {
		return nil, errors.New("ec: subgroup order q does not divide p+1")
	}
	return &Curve{F: f, Q: new(big.Int).Set(q), H: h, sc: newScalarCtx(q)}, nil
}

// MustCurve is NewCurve that panics on error, for vetted parameter sets.
func MustCurve(f *ff.Field, q *big.Int) *Curve {
	c, err := NewCurve(f, q)
	if err != nil {
		panic(err)
	}
	return c
}

// Point is a point of E(F_p) in affine coordinates, with the point at
// infinity represented by Inf == true. Points are immutable values.
type Point struct {
	X, Y ff.Element
	Inf  bool
}

// Infinity returns the identity element of the curve group.
func (c *Curve) Infinity() Point { return Point{Inf: true} }

// NewPoint validates that (x, y) satisfies the curve equation.
func (c *Curve) NewPoint(x, y ff.Element) (Point, error) {
	p := Point{X: x, Y: y}
	if !c.IsOnCurve(p) {
		return Point{}, errors.New("ec: point is not on the curve")
	}
	return p, nil
}

// IsOnCurve reports whether p satisfies y² = x³ + x (infinity counts).
func (c *Curve) IsOnCurve(p Point) bool {
	if p.Inf {
		return true
	}
	lhs := p.Y.Square()
	rhs := p.X.Square().Mul(p.X).Add(p.X)
	return lhs.Equal(rhs)
}

// Equal reports whether two points are the same.
func (p Point) Equal(q Point) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(q.X) && p.Y.Equal(q.Y)
}

// Neg returns −p, the reflection across the x-axis.
func (p Point) Neg() Point {
	if p.Inf {
		return p
	}
	return Point{X: p.X, Y: p.Y.Neg()}
}

// Add returns p + q using the affine chord-and-tangent rules. The
// identity checks branch, so Add is for public points and scalars; the
// constant-time path is ScalarMultSecret.
//
//mwslint:declassify affine addition is a public-path operation; secret-dependent points go through the masked Jacobian ladder
func (c *Curve) Add(p, q Point) Point {
	if p.Inf {
		return q
	}
	if q.Inf {
		return p
	}
	if p.Equal(q) {
		return c.Double(p)
	}
	if p.X.Equal(q.X) { // q = −p
		return c.Infinity()
	}
	// λ = (y2 − y1)/(x2 − x1)
	lam := q.Y.Sub(p.Y).Mul(q.X.Sub(p.X).Inv())
	x3 := lam.Square().Sub(p.X).Sub(q.X)
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return Point{X: x3, Y: y3}
}

// Double returns 2p. The curve has a = 1, so λ = (3x² + 1)/(2y). Like
// Add, this affine flavor branches on identity and is for public paths.
//
//mwslint:declassify affine doubling is a public-path operation; secret-dependent points go through the masked Jacobian ladder
func (c *Curve) Double(p Point) Point {
	if p.Inf {
		return p
	}
	if p.Y.IsZero() {
		return c.Infinity()
	}
	xSq := p.X.Square()
	num := xSq.Double().Add(xSq).Add(c.F.One())
	lam := num.Mul(p.Y.Double().Inv())
	x3 := lam.Square().Sub(p.X.Double())
	y3 := lam.Mul(p.X.Sub(x3)).Sub(p.Y)
	return Point{X: x3, Y: y3}
}

// ScalarMult returns k·p for any integer k (negative k uses −p), using a
// width-4 sliding window over Jacobian coordinates: odd multiples up to
// 15p are precomputed, then each window of set bits costs one addition
// instead of one per bit. The bit scan branches on the scalar, so the
// running time leaks its pattern — acceptable only for PUBLIC scalars
// (cofactor, group order, signature challenges, Lagrange coefficients).
// Secret scalars must go through ScalarMultSecret or a Comb; mwslint's
// ctflow analyzer enforces that split (its class 5, variable-time callees).
func (c *Curve) ScalarMult(p Point, k *big.Int) Point {
	obsv.AddScalarMultPublic()
	if p.Inf || k.Sign() == 0 {
		return c.Infinity()
	}
	kk := k
	if k.Sign() < 0 {
		kk = new(big.Int).Neg(k)
		p = p.Neg()
	}
	const w = secretWindow
	var tbl [combRow]jacPoint
	base := c.toJacobian(p)
	c.oddMultiples(tbl[:], &base)
	r := c.jacInfinity()
	i := kk.BitLen() - 1
	for i >= 0 {
		if kk.Bit(i) == 0 {
			jacDouble(&r, &r)
			i--
			continue
		}
		// Take the widest window [l, i] (≤ w bits) ending in a set bit, so
		// its value is odd and selects a precomputed multiple directly.
		l := i - w + 1
		if l < 0 {
			l = 0
		}
		for kk.Bit(l) == 0 {
			l++
		}
		var val uint
		for j := i; j >= l; j-- {
			jacDouble(&r, &r)
			val = val<<1 | kk.Bit(j)
		}
		c.jacAdd(&r, &r, &tbl[(val-1)/2])
		i = l - 1
	}
	return c.fromJacobian(&r)
}

// ScalarBaseOrderCheck reports whether p lies in the order-q subgroup.
func (c *Curve) ScalarBaseOrderCheck(p Point) bool {
	return c.ScalarMult(p, c.Q).Inf
}

// ClearCofactor multiplies by h = (p+1)/q, projecting a curve point into
// the pairing subgroup G1.
func (c *Curve) ClearCofactor(p Point) Point { return c.ScalarMult(p, c.H) }

// String implements fmt.Stringer.
func (p Point) String() string {
	if p.Inf {
		return "∞"
	}
	return fmt.Sprintf("(%s, %s)", p.X, p.Y)
}

// Bytes encodes a point as 1 tag byte (0 = infinity, 4 = affine) followed
// by two fixed-width coordinates for affine points. ff.Bytes runs in
// constant time; the only branch is on the public infinity flag.
//
//mwslint:declassify the infinity tag of a serialized point is public wire structure
func (c *Curve) Bytes(p Point) []byte {
	if p.Inf {
		return []byte{0}
	}
	out := make([]byte, 0, 1+2*c.F.ByteLen())
	out = append(out, 4)
	out = append(out, p.X.Bytes()...)
	out = append(out, p.Y.Bytes()...)
	return out
}

// PointFromBytes decodes the encoding produced by Bytes, validating curve
// membership.
func (c *Curve) PointFromBytes(b []byte) (Point, error) {
	if len(b) == 1 && b[0] == 0 {
		return c.Infinity(), nil
	}
	want := 1 + 2*c.F.ByteLen()
	if len(b) != want || b[0] != 4 {
		return Point{}, fmt.Errorf("ec: malformed point encoding (len %d)", len(b))
	}
	x, err := c.F.FromBytes(b[1 : 1+c.F.ByteLen()])
	if err != nil {
		return Point{}, err
	}
	y, err := c.F.FromBytes(b[1+c.F.ByteLen():])
	if err != nil {
		return Point{}, err
	}
	return c.NewPoint(x, y)
}

// FinitePointFromBytes decodes like PointFromBytes and refuses ∞: the
// decoder of a point that is only ever a second pairing argument (an
// encapsulation or tag point), or a first one whose Miller walk checks
// its order (a trapdoor, peks.NewTester; DESIGN.md §9).
func (c *Curve) FinitePointFromBytes(b []byte) (Point, error) {
	p, err := c.PointFromBytes(b)
	if err == nil && p.Inf {
		err = errors.New("ec: point at infinity")
	}
	return p, err
}

// SubgroupPointFromBytes decodes like PointFromBytes and additionally
// rejects finite points outside the order-q subgroup. Wire boundaries
// where bytes become a point that is walked as a *first* pairing argument
// or a signature component (P_pub, private keys, trapdoors, IBS points)
// use this decoder: the pairing's Miller walk is exception-free only for
// order q. A point only ever paired as a second argument needs only
// PointFromBytes, its off-subgroup part pairing to 1 (DESIGN.md §9).
func (c *Curve) SubgroupPointFromBytes(b []byte) (Point, error) {
	p, err := c.PointFromBytes(b)
	if err != nil {
		return Point{}, err
	}
	if !c.ScalarBaseOrderCheck(p) {
		return Point{}, errors.New("ec: point not in the order-q subgroup")
	}
	return p, nil
}

// PointByteLen returns the length of an affine point encoding.
func (c *Curve) PointByteLen() int { return 1 + 2*c.F.ByteLen() }
