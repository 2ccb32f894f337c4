// Package ec is a mwslint fixture stand-in for the curve layer: the
// variable-time ScalarMult sink and its constant-time alternatives.
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

// ScalarMult is the variable-time multiplier: a ctflow sink.
func (c *Curve) ScalarMult(p Point, k *big.Int) Point {
	_ = k
	return p
}

// ScalarMultSecret is the constant-schedule multiplier: sanctioned for
// secret scalars.
func (c *Curve) ScalarMultSecret(p Point, k *big.Int) Point {
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
func (t *Comb) Mul(k *big.Int) Point {
	_ = k
	return t.base
}
