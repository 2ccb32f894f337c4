package bfibe

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mwskit/internal/pairing"
)

// Wire encodings for the bfibe types. Layout is length-prefixed
// big-endian; all decoders validate full order-q subgroup membership via
// ec.SubgroupPointFromBytes — every point decoded here later meets
// secret material (a private key in a pairing, the master scalar), so
// curve membership alone would leave the small-subgroup door open.

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
	return &Params{Sys: sys, PPub: pt}, nil
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
	id := make([]byte, idLen)
	copy(id, b[4:4+idLen])
	d, err := p.Sys.Curve.SubgroupPointFromBytes(b[4+idLen:])
	if err != nil {
		return nil, fmt.Errorf("bfibe: private key: %w", err)
	}
	return &PrivateKey{ID: id, D: d}, nil
}

// MarshalEncapsulation encodes the key-transport point U (the rP the
// paper stores beside each message).
func MarshalEncapsulation(p *Params, e *Encapsulation) []byte {
	return p.Sys.Curve.Bytes(e.u)
}

// UnmarshalEncapsulation decodes U. This is the one place an encapsulation
// point from the wire or from storage is validated — on the curve, of
// order q, not the identity — and Decapsulate relies on it: an on-curve
// point outside G1 pairs into a small subgroup and probes the private key
// (the invalid-point attack); honest encapsulations are always rP ∈ G1.
func UnmarshalEncapsulation(p *Params, b []byte) (*Encapsulation, error) {
	u, err := p.Sys.Curve.SubgroupPointFromBytes(b)
	if err != nil {
		return nil, fmt.Errorf("bfibe: encapsulation: %w", err)
	}
	if u.Inf {
		return nil, errors.New("bfibe: encapsulation: point at infinity")
	}
	return &Encapsulation{u: u}, nil
}

// MarshalCiphertextFull encodes (U, V, W).
func MarshalCiphertextFull(p *Params, ct *CiphertextFull) []byte {
	u := p.Sys.Curve.Bytes(ct.U)
	out := make([]byte, 0, 4+len(u)+4+len(ct.V)+len(ct.W))
	out = appendChunk(out, u)
	out = appendChunk(out, ct.V)
	out = append(out, ct.W...)
	return out
}

// UnmarshalCiphertextFull decodes (U, V, W), validating the point.
func UnmarshalCiphertextFull(p *Params, b []byte) (*CiphertextFull, error) {
	u, rest, err := readChunk(b)
	if err != nil {
		return nil, fmt.Errorf("bfibe: ciphertext: %w", err)
	}
	v, rest, err := readChunk(rest)
	if err != nil {
		return nil, fmt.Errorf("bfibe: ciphertext: %w", err)
	}
	pt, err := p.Sys.Curve.SubgroupPointFromBytes(u)
	if err != nil {
		return nil, fmt.Errorf("bfibe: ciphertext: %w", err)
	}
	w := make([]byte, len(rest))
	copy(w, rest)
	vCopy := make([]byte, len(v))
	copy(vCopy, v)
	return &CiphertextFull{U: pt, V: vCopy, W: w}, nil
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

func appendChunk(dst, chunk []byte) []byte {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(chunk)))
	dst = append(dst, lenBuf[:]...)
	return append(dst, chunk...)
}

func readChunk(b []byte) (chunk, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, errors.New("truncated chunk header")
	}
	n := binary.BigEndian.Uint32(b)
	if uint32(len(b)-4) < n {
		return nil, nil, errors.New("truncated chunk body")
	}
	return b[4 : 4+n], b[4+n:], nil
}
