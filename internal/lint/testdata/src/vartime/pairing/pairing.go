// Package pairing is a mwslint fixture stand-in for the pairing system:
// the RandomScalar source.
package pairing

import (
	"io"

	"mwskit/internal/lint/testdata/src/vartime/ec"
)

// System bundles the curve and generator.
type System struct {
	Curve *ec.Curve
	g     ec.Point
}

// G1 returns the generator.
func (s *System) G1() ec.Point { return s.g }

// G1Comb returns a fixed-base table for the generator.
func (s *System) G1Comb() *ec.Comb { return s.Curve.NewComb(s.g) }

// RandomScalar draws a secret scalar: a ctflow source.
func (s *System) RandomScalar(r io.Reader) (ec.Scalar, error) {
	var b [32]byte
	_, err := io.ReadFull(r, b[:])
	return s.Curve.ScalarFromWide(b[:]), err
}
