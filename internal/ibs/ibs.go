// Package ibs implements the Cha–Cheon identity-based signature scheme
// over the same Boneh–Franklin key hierarchy as internal/bfibe. It
// realizes the paper's §VIII future-work item: "There may be a
// possibility of the SD to use IBE … to sign a message", removing the
// need for a pre-shared MAC key between each smart device and the MWS —
// the SDA can verify a deposit with nothing but the public parameters and
// the device's identity string.
//
// Scheme (Cha & Cheon, PKC 2003), using the system (P, P_pub = sP) and a
// device key d_ID = s·Q_ID extracted by the PKG:
//
//	Sign(m):   r ← Z_q*, U = r·Q_ID, h = H(m ‖ U), V = (r + h)·d_ID
//	Verify:    ê(P, V) == ê(P_pub, U + h·Q_ID)
//
// Correctness: ê(P, (r+h)·s·Q_ID) = ê(sP, (r+h)·Q_ID).
package ibs

import (
	"errors"
	"fmt"
	"io"

	"mwskit/internal/bfibe"
	"mwskit/internal/ec"
)

// Signature is a Cha–Cheon signature (U, V) ∈ G1².
type Signature struct {
	U ec.Point
	V ec.Point
}

// hashDomain separates the signature challenge hash h = H(m ‖ U) ∈
// [1, q−1] from other scalar derivations.
const hashDomain = "mwskit/ibs/h/v1"

// Sign produces a signature on msg under the identity key sk (which is
// the same d_ID = s·Q_ID object bfibe extraction yields — one PKG key
// serves both encryption and signing roles for a device identity).
func Sign(p *bfibe.Params, sk *bfibe.PrivateKey, msg []byte, rng io.Reader) (*Signature, error) {
	if p == nil || sk == nil {
		return nil, errors.New("ibs: nil params or key")
	}
	q, err := p.HashIdentity(sk.ID)
	if err != nil {
		return nil, err
	}
	r, err := p.Sys.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	// Both multiplications involve secrets — r blinds the signature and
	// r+h multiplies the private key — so they take the constant-time
	// path, and the response sum r+h mod q is formed on limbs.
	c := p.Sys.Curve
	u := c.ScalarMultSecret(q, r)
	h := p.HashToScalar(hashDomain, msg, c.Bytes(u))
	// V = (r + h)·d_ID
	v := c.ScalarMultSecret(sk.D, c.ScalarAdd(r, h))
	return &Signature{U: u, V: v}, nil
}

// Verify checks a signature on msg for the given identity using only the
// public parameters.
func Verify(p *bfibe.Params, identity, msg []byte, sig *Signature) bool {
	if p == nil || sig == nil {
		return false
	}
	if !p.Sys.Curve.IsOnCurve(sig.U) || !p.Sys.Curve.IsOnCurve(sig.V) {
		return false
	}
	q, err := p.HashIdentity(identity)
	if err != nil {
		return false
	}
	// RHS point: U + h·Q_ID. h is public, but a hashed scalar exists only
	// on limbs and no multiplier takes one back into math/big.
	c := p.Sys.Curve
	h := p.HashToScalar(hashDomain, msg, c.Bytes(sig.U))
	rhs := c.Add(sig.U, c.ScalarMultSecret(q, h))
	// ê(P, V) = ê(P_pub, rhs)  ⇔  ê(P, V)·ê(−P_pub, rhs) = 1, which a
	// multi-pairing decides with one shared final exponentiation instead
	// of two full pairings.
	return p.Sys.PairProduct(
		[]ec.Point{p.Sys.G1(), p.PPub.Neg()},
		[]ec.Point{sig.V, rhs},
	).IsOne()
}

// Marshal encodes a signature as two point encodings.
func (s *Signature) Marshal(p *bfibe.Params) []byte {
	u := p.Sys.Curve.Bytes(s.U)
	v := p.Sys.Curve.Bytes(s.V)
	out := make([]byte, 0, 4+len(u)+len(v))
	out = append(out, byte(len(u)>>24), byte(len(u)>>16), byte(len(u)>>8), byte(len(u)))
	out = append(out, u...)
	return append(out, v...)
}

// Unmarshal decodes a signature, validating both points.
func Unmarshal(p *bfibe.Params, b []byte) (*Signature, error) {
	if len(b) < 4 {
		return nil, errors.New("ibs: truncated signature")
	}
	n := int(b[0])<<24 | int(b[1])<<16 | int(b[2])<<8 | int(b[3])
	if n < 0 || len(b)-4 < n {
		return nil, errors.New("ibs: truncated signature body")
	}
	u, err := p.Sys.Curve.SubgroupPointFromBytes(b[4 : 4+n])
	if err != nil {
		return nil, fmt.Errorf("ibs: U: %w", err)
	}
	v, err := p.Sys.Curve.SubgroupPointFromBytes(b[4+n:])
	if err != nil {
		return nil, fmt.Errorf("ibs: V: %w", err)
	}
	return &Signature{U: u, V: v}, nil
}

// DeviceIdentity maps a device ID to the identity string its signing key
// is extracted for. The namespace prefix keeps device signing identities
// disjoint from message-encryption identities (which are attribute
// digests), so a signing key can never double as a message key.
func DeviceIdentity(deviceID string) []byte {
	return []byte("mwskit/device-signer/v1:" + deviceID)
}
