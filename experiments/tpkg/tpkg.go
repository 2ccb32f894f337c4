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
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"mwskit/internal/bfibe"
	"mwskit/internal/ec"
)

// Share is one server's slice of the master secret: the evaluation
// f(Index) of the sharing polynomial.
type Share struct {
	Index  uint32 // x-coordinate, ≥ 1
	Scalar *big.Int
}

// Partial is one server's contribution to an extraction.
type Partial struct {
	Index uint32
	Point ec.Point // f(Index)·Q_ID
}

// Split shares the master secret among n servers with threshold t
// (any t of the n shares suffice; t−1 reveal nothing).
//
//mwslint:ignore ctflow key-ceremony boundary: Horner evaluation works the secret coefficients with math/big, but Split runs once at setup inside the PKG quorum, not on any request path
func Split(master *bfibe.MasterKey, t, n int, q *big.Int, rng io.Reader) ([]Share, error) {
	if t < 1 || n < t {
		return nil, fmt.Errorf("tpkg: invalid threshold %d of %d", t, n)
	}
	if master == nil || q == nil {
		return nil, errors.New("tpkg: nil master or group order")
	}
	// coeffs[0] = s; coeffs[1..t-1] random.
	coeffs := make([]*big.Int, t)
	coeffs[0] = master.S()
	for i := 1; i < t; i++ {
		c, err := rand.Int(rng, q)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	shares := make([]Share, n)
	for i := 1; i <= n; i++ {
		x := big.NewInt(int64(i))
		// Horner evaluation of f(x) mod q.
		acc := new(big.Int)
		for j := t - 1; j >= 0; j-- {
			acc.Mul(acc, x)
			acc.Add(acc, coeffs[j])
			acc.Mod(acc, q)
		}
		shares[i-1] = Share{Index: uint32(i), Scalar: acc}
	}
	return shares, nil
}

// PartialExtract computes this share's contribution f(i)·Q_ID for the
// given identity. It runs at share server i and never sees s.
func (sh Share) PartialExtract(p *bfibe.Params, identity []byte) (Partial, error) {
	if sh.Scalar == nil || sh.Index == 0 {
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
