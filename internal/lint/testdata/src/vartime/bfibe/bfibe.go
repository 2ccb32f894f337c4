// Package bfibe is a mwslint fixture for ctflow's variable-time-callee
// sink: the master secret reaching the variable-time multiplier versus
// the constant-time path.
package bfibe

import (
	"math/big"

	"mwskit/internal/lint/testdata/src/vartime/ec"
)

// MasterKey holds the master secret s: every value reached from it is
// master-key material.
type MasterKey struct {
	s *big.Int
}

// ExtractBad multiplies by the master secret on the variable-time path.
func (m *MasterKey) ExtractBad(c *ec.Curve, q ec.Point) ec.Point {
	return c.ScalarMult(q, m.s) // want "IBE master-key material flows into variable-time ec.ScalarMult"
}

// ExtractGood takes the constant-schedule path: clean.
func (m *MasterKey) ExtractGood(c *ec.Curve, q ec.Point) ec.Point {
	return c.ScalarMultSecret(q, m.s)
}

// extractVia launders the scalar through a helper two calls deep; the
// interprocedural engine still sees the master taint at the sink.
func extractVia(c *ec.Curve, q ec.Point, k *big.Int) ec.Point {
	return c.ScalarMult(q, k) // want "IBE master-key material flows into variable-time ec.ScalarMult"
}

// ExtractLaundered routes the master scalar through extractVia.
func (m *MasterKey) ExtractLaundered(c *ec.Curve, q ec.Point) ec.Point {
	return extractVia(c, q, m.s)
}
