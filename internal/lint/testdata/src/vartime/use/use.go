// Package use is a mwslint fixture for ctflow's variable-time-callee
// sink: fresh RandomScalar randomness taken back into math/big for the
// variable-time multiplier, against the sanctioned constant-time routes.
package use

import (
	"crypto/rand"
	"math/big"

	"mwskit/internal/lint/testdata/src/vartime/ec"
	"mwskit/internal/lint/testdata/src/vartime/pairing"
)

// EncapsulateBad computes U = rP on the variable-time path.
func EncapsulateBad(sys *pairing.System) (ec.Point, error) {
	r, err := sys.RandomScalar(rand.Reader)
	if err != nil {
		return ec.Point{}, err
	}
	k := new(big.Int).SetBytes(sys.Curve.ScalarBytes(r)) // want "a secret scalar flows into variable-time math/big.SetBytes"
	return sys.Curve.ScalarMult(sys.G1(), k), nil        // want "a secret scalar flows into variable-time ec.ScalarMult"
}

// EncapsulateSecret uses the constant-schedule multiplier: clean.
func EncapsulateSecret(sys *pairing.System) (ec.Point, error) {
	r, err := sys.RandomScalar(rand.Reader)
	if err != nil {
		return ec.Point{}, err
	}
	return sys.Curve.ScalarMultSecret(sys.G1(), r), nil
}

// EncapsulateComb uses the fixed-base table: clean.
func EncapsulateComb(sys *pairing.System) (ec.Point, error) {
	r, err := sys.RandomScalar(rand.Reader)
	if err != nil {
		return ec.Point{}, err
	}
	return sys.G1Comb().Mul(r), nil
}

// VerifyPublic multiplies by a public challenge: clean, the
// variable-time multiplier exists for exactly this.
func VerifyPublic(sys *pairing.System, h *big.Int) ec.Point {
	return sys.Curve.ScalarMult(sys.G1(), h)
}

// SignDerived mimics the IBS shape: the challenge scalar is derived
// from U = rP, but U came off the constant-time multiplier, which
// sanitizes the flow — re-multiplying by the public challenge on the
// variable-time path is clean.
func SignDerived(sys *pairing.System) (ec.Point, error) {
	r, err := sys.RandomScalar(rand.Reader)
	if err != nil {
		return ec.Point{}, err
	}
	u := sys.Curve.ScalarMultSecret(sys.G1(), r)
	h := new(big.Int).Set(u.X)
	return sys.Curve.ScalarMult(sys.G1(), h), nil
}

// mulVia is an innocent-looking helper; taint arrives via its caller.
func mulVia(sys *pairing.System, k []byte) ec.Point {
	return sys.Curve.ScalarMult(sys.G1(), new(big.Int).SetBytes(k)) // want "a secret scalar flows into variable-time math/big.SetBytes" "a secret scalar flows into variable-time ec.ScalarMult"
}

// EncapsulateLaundered routes the secret through mulVia.
func EncapsulateLaundered(sys *pairing.System) (ec.Point, error) {
	r, err := sys.RandomScalar(rand.Reader)
	if err != nil {
		return ec.Point{}, err
	}
	return mulVia(sys, sys.Curve.ScalarBytes(r)), nil
}
