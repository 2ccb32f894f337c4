// Package ec is a mwslint fixture stand-in for the curve layer: the
// limb-domain Scalar, the variable-time ScalarMult sink and its
// constant-time alternatives.
package ec

import "math/big"

// Point is a curve point.
type Point struct {
	X, Y *big.Int
	Inf  bool
}

// Curve is the group.
type Curve struct {
	Q *big.Int
}

// Scalar is a secret scalar on limbs: the only form the constant-time
// multipliers take.
type Scalar struct{ l [4]uint64 }

// ScalarBytes encodes k at a fixed width. It is the one road from a
// Scalar back to bytes, and so the one a secret takes into math/big.
func (c *Curve) ScalarBytes(k Scalar) []byte {
	b := make([]byte, 32)
	for i := range b {
		b[len(b)-1-i] = byte(k.l[i/8] >> (8 * (i % 8)))
	}
	return b
}

// ScalarFromWide reduces hash output into a Scalar on limbs; the result
// is as secret as the bytes.
func (c *Curve) ScalarFromWide(v []byte) Scalar {
	var k Scalar
	for i, b := range v {
		k.l[i%4] ^= uint64(b)
	}
	return k
}

// ScalarMult is the variable-time multiplier: a ctflow sink.
func (c *Curve) ScalarMult(p Point, k *big.Int) Point {
	_ = k
	return p
}

// ScalarMultSecret is the constant-schedule multiplier: sanctioned for
// secret scalars.
func (c *Curve) ScalarMultSecret(p Point, k Scalar) Point {
	_ = k
	return p
}

// Comb is a fixed-base precomputation table.
type Comb struct {
	base Point
}

// NewComb builds a table for base.
func (c *Curve) NewComb(base Point) *Comb { return &Comb{base: base} }

// Mul is the fixed-base constant-schedule multiplier.
func (t *Comb) Mul(k Scalar) Point {
	_ = k
	return t.base
}
