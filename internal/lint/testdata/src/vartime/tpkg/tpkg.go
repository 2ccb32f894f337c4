// Package tpkg is a mwslint fixture for ctflow's variable-time sink: a
// threshold share scalar is as secret as the master key it reconstructs.
package tpkg

import (
	"math/big"

	"mwskit/internal/lint/testdata/src/vartime/ec"
)

// Share is one threshold share of the master secret.
type Share struct {
	Index  uint32
	Scalar ec.Scalar
}

// PartialBad takes the share scalar into math/big for the variable-time
// path.
func PartialBad(c *ec.Curve, sh Share, q ec.Point) ec.Point {
	k := new(big.Int).SetBytes(c.ScalarBytes(sh.Scalar)) // want "a secret scalar flows into variable-time math/big.SetBytes"
	return c.ScalarMult(q, k)                            // want "a secret scalar flows into variable-time ec.ScalarMult"
}

// PartialGood uses the constant-schedule multiplier: clean.
func PartialGood(c *ec.Curve, sh Share, q ec.Point) ec.Point {
	return c.ScalarMultSecret(q, sh.Scalar)
}

// CombineLagrange multiplies a public partial point by a public Lagrange
// coefficient: clean, the variable-time path is fine for public scalars.
func CombineLagrange(c *ec.Curve, pt ec.Point, indices []uint32) ec.Point {
	lam := big.NewInt(1)
	for _, i := range indices {
		lam.Mul(lam, big.NewInt(int64(i)))
	}
	return c.ScalarMult(pt, lam)
}
