// Package tpkg implements a threshold Private Key Generator — the §VIII
// future-work item "A form of threshold cryptography may also be
// considered, to create a distributed PKG, instead of a key escrow."
//
// The master secret s is Shamir-shared over Z_q as a degree-(t−1)
// polynomial f with f(0) = s; share server i holds f(i). To extract the
// key for an identity, any t servers each return a partial
// P_i = f(i)·Q_ID, and the client combines them with Lagrange
// coefficients evaluated at zero:
//
//	d_ID = Σ λ_i·P_i,   λ_i = Π_{j≠i} x_j / (x_j − x_i)  (mod q)
//
// because Σ λ_i·f(i) = f(0) = s. No single server — and no coalition of
// fewer than t — ever reconstructs s or can extract keys alone, removing
// the paper's single-point-of-trust key escrow.
package tpkg

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"mwskit/internal/bfibe"
	"mwskit/internal/ec"
	"mwskit/internal/pairing"
)

// Share is one server's slice of the master secret: the evaluation
// f(Index) of the sharing polynomial.
type Share struct {
	Index  uint32 // x-coordinate, ≥ 1
	Scalar ec.Scalar
}

// Partial is one server's contribution to an extraction.
type Partial struct {
	Index uint32
	Point ec.Point // f(Index)·Q_ID
}

// Split shares the master secret among n servers with threshold t
// (any t of the n shares suffice; t−1 reveal nothing). The coefficients
// and the evaluations f(i) are secret scalars and stay on limbs: Horner's
// rule multiplies by the public index i with mulSmall.
func Split(master *bfibe.MasterKey, t, n int, sys *pairing.System, rng io.Reader) ([]Share, error) {
	if t < 1 || n < t {
		return nil, fmt.Errorf("tpkg: invalid threshold %d of %d", t, n)
	}
	if master == nil || sys == nil {
		return nil, errors.New("tpkg: nil master or pairing system")
	}
	// coeffs[0] = s; coeffs[1..t-1] random.
	coeffs := make([]ec.Scalar, t)
	var err error
	if coeffs[0], err = sys.Curve.ScalarFromBytes(bfibe.MarshalMasterKey(sys, master)); err != nil {
		return nil, err
	}
	for i := 1; i < t; i++ {
		if coeffs[i], err = sys.RandomScalar(rng); err != nil {
			return nil, err
		}
	}
	shares := make([]Share, n)
	for i := 1; i <= n; i++ {
		// Horner evaluation of f(i) mod q.
		var acc ec.Scalar
		for j := t - 1; j >= 0; j-- {
			acc = sys.Curve.ScalarAdd(mulSmall(sys.Curve, acc, uint32(i)), coeffs[j])
		}
		shares[i-1] = Share{Index: uint32(i), Scalar: acc}
	}
	return shares, nil
}

// mulSmall returns x·k mod q by double-and-add over the bits of the
// public x, on ScalarAdd alone.
func mulSmall(c *ec.Curve, k ec.Scalar, x uint32) ec.Scalar {
	var r ec.Scalar
	for bit := 31; bit >= 0; bit-- {
		r = c.ScalarAdd(r, r)
		if x>>bit&1 == 1 {
			r = c.ScalarAdd(r, k)
		}
	}
	return r
}

// PartialExtract computes this share's contribution f(i)·Q_ID for the
// given identity. It runs at share server i and never sees s.
func (sh Share) PartialExtract(p *bfibe.Params, identity []byte) (Partial, error) {
	if sh.Index == 0 {
		return Partial{}, errors.New("tpkg: uninitialized share")
	}
	q, err := p.HashIdentity(identity)
	if err != nil {
		return Partial{}, err
	}
	// The share scalar f(i) is secret key material: a timing leak here is
	// as damaging as one in the monolithic PKG's Extract.
	return Partial{Index: sh.Index, Point: p.Sys.Curve.ScalarMultSecret(q, sh.Scalar)}, nil
}

// Combine assembles t partials into the identity's private key. The
// partial set must contain distinct indices; supplying fewer partials
// than the sharing threshold yields a key that fails decryption (there is
// no way to detect under-threshold combination locally — the math simply
// produces a wrong point — so callers should validate against a known
// plaintext or trust the server count).
func Combine(p *bfibe.Params, identity []byte, partials []Partial) (*bfibe.PrivateKey, error) {
	if len(partials) == 0 {
		return nil, errors.New("tpkg: no partials")
	}
	order := p.Sys.Curve.Q
	seen := map[uint32]bool{}
	for _, pt := range partials {
		if pt.Index == 0 {
			return nil, errors.New("tpkg: partial with zero index")
		}
		if seen[pt.Index] {
			return nil, fmt.Errorf("tpkg: duplicate partial index %d", pt.Index)
		}
		seen[pt.Index] = true
		if !p.Sys.Curve.IsOnCurve(pt.Point) {
			return nil, fmt.Errorf("tpkg: partial %d off curve", pt.Index)
		}
	}
	acc := p.Sys.Curve.Infinity()
	for i, pi := range partials {
		lam := lagrangeAtZero(partials, i, order)
		acc = p.Sys.Curve.Add(acc, p.Sys.Curve.ScalarMult(pi.Point, lam))
	}
	idCopy := make([]byte, len(identity))
	copy(idCopy, identity)
	return &bfibe.PrivateKey{ID: idCopy, D: acc}, nil
}

// lagrangeAtZero computes λ_i = Π_{j≠i} x_j/(x_j−x_i) mod q.
func lagrangeAtZero(partials []Partial, i int, q *big.Int) *big.Int {
	num := big.NewInt(1)
	den := big.NewInt(1)
	xi := big.NewInt(int64(partials[i].Index))
	for j, pj := range partials {
		if j == i {
			continue
		}
		xj := big.NewInt(int64(pj.Index))
		num.Mul(num, xj)
		num.Mod(num, q)
		diff := new(big.Int).Sub(xj, xi)
		diff.Mod(diff, q)
		den.Mul(den, diff)
		den.Mod(den, q)
	}
	den.ModInverse(den, q)
	num.Mul(num, den)
	return num.Mod(num, q)
}

// VerifyAgainstMaster checks that a set of shares reconstructs the
// public key sP, without revealing s: Σ λ_i·(f(i)·P) must equal P_pub.
// Used at setup time to validate a fresh sharing before the dealer
// erases s.
func VerifyAgainstMaster(p *bfibe.Params, shares []Share) error {
	partials := make([]Partial, len(shares))
	for i, sh := range shares {
		partials[i] = Partial{Index: sh.Index, Point: p.Sys.G1Comb().Mul(sh.Scalar)}
	}
	acc := p.Sys.Curve.Infinity()
	order := p.Sys.Curve.Q
	for i, pi := range partials {
		lam := lagrangeAtZero(partials, i, order)
		acc = p.Sys.Curve.Add(acc, p.Sys.Curve.ScalarMult(pi.Point, lam))
	}
	if !acc.Equal(p.PPub) {
		return errors.New("tpkg: shares do not reconstruct P_pub")
	}
	return nil
}
