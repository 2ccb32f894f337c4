// Package bfibe is a mwslint fixture for ctflow's variable-time-callee
// sink: the master secret taken back into math/big for the
// variable-time multiplier versus the constant-time path.
package bfibe

import (
	"math/big"

	"mwskit/internal/lint/testdata/src/vartime/ec"
	"mwskit/internal/lint/testdata/src/vartime/kdf"
)

// MasterKey holds the master secret s: every value reached from it is
// master-key material.
type MasterKey struct {
	s ec.Scalar
}

// ExtractBad takes the master secret into math/big and multiplies on the
// variable-time path.
func (m *MasterKey) ExtractBad(c *ec.Curve, q ec.Point) ec.Point {
	return c.ScalarMult(q, new(big.Int).SetBytes(c.ScalarBytes(m.s))) // want "IBE master-key material flows into variable-time math/big.SetBytes" "IBE master-key material flows into variable-time ec.ScalarMult"
}

// ExtractGood takes the constant-schedule path: clean.
func (m *MasterKey) ExtractGood(c *ec.Curve, q ec.Point) ec.Point {
	return c.ScalarMultSecret(q, m.s)
}

// extractVia launders the scalar through a helper two calls deep; the
// interprocedural engine still sees the master taint at both sinks.
func extractVia(c *ec.Curve, q ec.Point, k []byte) ec.Point {
	return c.ScalarMult(q, new(big.Int).SetBytes(k)) // want "IBE master-key material flows into variable-time math/big.SetBytes" "IBE master-key material flows into variable-time ec.ScalarMult"
}

// ExtractLaundered routes the master scalar through extractVia.
func (m *MasterKey) ExtractLaundered(c *ec.Curve, q ec.Point) ec.Point {
	return extractVia(c, q, c.ScalarBytes(m.s))
}

// ReencryptBad derives the Fujisaki–Okamoto scalar from a secret seed —
// kdf.ScalarSeed passes the seed's label through, the limb reduction
// keeps it — and takes it into math/big.
func ReencryptBad(c *ec.Curve, g ec.Point, secret []byte) ec.Point {
	r := c.ScalarFromWide(kdf.ScalarSeed("h3", 32, secret))
	k := new(big.Int).SetBytes(c.ScalarBytes(r)) // want "symmetric key material flows into variable-time math/big.SetBytes"
	return c.ScalarMult(g, k)                    // want "symmetric key material flows into variable-time ec.ScalarMult"
}

// ReencryptGood keeps the derived scalar on limbs: clean.
func ReencryptGood(c *ec.Curve, g ec.Point, secret []byte) ec.Point {
	return c.ScalarMultSecret(g, c.ScalarFromWide(kdf.ScalarSeed("h3", 32, secret)))
}

// ChallengePublic hashes public bytes to a scalar: nothing secret went
// in, so taking it to the public multiplier is clean.
func ChallengePublic(c *ec.Curve, g ec.Point, msg []byte) ec.Point {
	h := c.ScalarFromWide(kdf.ScalarSeed("ibs", 32, msg))
	return c.ScalarMult(g, new(big.Int).SetBytes(c.ScalarBytes(h)))
}
