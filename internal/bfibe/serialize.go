package bfibe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"mwskit/internal/pairing"
)

// Wire encodings for the bfibe types, length-prefixed big-endian. Every
// point decoded is canonical and on the curve; P_pub and private keys,
// first pairing arguments, are also order-checked. U, only ever a second
// argument, is not: its part of order dividing h pairs to 1 (DESIGN.md §9).

// MarshalParams encodes the public parameters (P_pub only — the pairing
// system itself is negotiated out of band as a named preset, mirroring
// the paper's assumption that system parameters are distributed at
// registration).
func MarshalParams(p *Params) []byte {
	return p.Sys.Curve.Bytes(p.PPub)
}

// UnmarshalParams decodes parameters against a known pairing system.
func UnmarshalParams(sys *pairing.System, b []byte) (*Params, error) {
	pt, err := sys.Curve.SubgroupPointFromBytes(b)
	if err != nil {
		return nil, fmt.Errorf("bfibe: params: %w", err)
	}
	if pt.Inf {
		return nil, errors.New("bfibe: params: P_pub is the identity")
	}
	p := &Params{Sys: sys, PPub: pt}
	p.identityLines()
	return p, nil
}

// MarshalPrivateKey encodes an extracted key as len(ID) ‖ ID ‖ point.
func MarshalPrivateKey(p *Params, sk *PrivateKey) []byte {
	out := make([]byte, 4, 4+len(sk.ID)+p.Sys.Curve.PointByteLen())
	binary.BigEndian.PutUint32(out, uint32(len(sk.ID)))
	out = append(out, sk.ID...)
	out = append(out, p.Sys.Curve.Bytes(sk.D)...)
	return out
}

// UnmarshalPrivateKey decodes a private key, validating the point.
func UnmarshalPrivateKey(p *Params, b []byte) (*PrivateKey, error) {
	if len(b) < 4 {
		return nil, errors.New("bfibe: private key: truncated")
	}
	idLen := binary.BigEndian.Uint32(b)
	if uint32(len(b)-4) < idLen {
		return nil, errors.New("bfibe: private key: truncated identity")
	}
	d, err := p.Sys.Curve.SubgroupPointFromBytes(b[4+idLen:])
	if err != nil {
		return nil, fmt.Errorf("bfibe: private key: %w", err)
	}
	return &PrivateKey{ID: bytes.Clone(b[4 : 4+idLen]), D: d}, nil
}

// MarshalEncapsulation encodes the key-transport point U (the rP the
// paper stores beside each message).
func MarshalEncapsulation(p *Params, e *Encapsulation) []byte {
	return p.Sys.Curve.Bytes(e.u)
}

// UnmarshalEncapsulation decodes U, the one place an encapsulation point
// from the wire or from storage is validated: on the curve, not the
// identity. An off-curve point would be an invalid-curve probe of the
// private key; an on-curve U outside G1 decapsulates to the key of its G1
// projection, and one without a G1 part is refused by Decapsulate.
func UnmarshalEncapsulation(p *Params, b []byte) (*Encapsulation, error) {
	u, err := p.Sys.Curve.FinitePointFromBytes(b)
	if err != nil {
		return nil, fmt.Errorf("bfibe: encapsulation: %w", err)
	}
	return &Encapsulation{u: u}, nil
}

// MarshalMasterKey encodes the master scalar for PKG persistence,
// big-endian at the curve's fixed scalar width.
func MarshalMasterKey(sys *pairing.System, mk *MasterKey) []byte {
	return sys.Curve.ScalarBytes(mk.s)
}

// UnmarshalMasterKey decodes a persisted master scalar: a big-endian
// value of at most the curve's scalar width (earlier versions wrote it
// without leading zero bytes) in [1, q−1]. A longer input, zero, or a
// value not below q is refused — s ≡ 0 would publish P_pub = ∞.
func UnmarshalMasterKey(sys *pairing.System, b []byte) (*MasterKey, error) {
	n := sys.Curve.ScalarLen()
	if len(b) > n {
		return nil, fmt.Errorf("bfibe: master key of %d bytes, want at most %d", len(b), n)
	}
	s, err := sys.Curve.ScalarFromBytes(append(make([]byte, n-len(b)), b...))
	if err != nil {
		return nil, fmt.Errorf("bfibe: master key: %w", err)
	}
	if s.IsZero() {
		return nil, errors.New("bfibe: master key is zero")
	}
	return &MasterKey{s: s}, nil
}
