// Package kdf provides the hash-function family the Boneh–Franklin scheme
// and the MWS protocol are built from: counter-mode key/mask derivation
// (the H2 and H4 roles), the byte expansion of hashing into the scalar
// field (H3), and the paper's attribute digest I = SHA1(A ‖ Nonce) (§V.D).
//
// All functions are deterministic, domain-separated, and stdlib-only.
package kdf

import (
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
)

// Stream derives n pseudo-random bytes from the given secret and domain
// label using SHA-256 in counter mode: block_i = SHA-256(domain ‖ i ‖
// secret). It serves as H2/H4 in the Fujisaki–Okamoto transform and as
// the KDF turning a pairing value into a symmetric key.
func Stream(domain string, secret []byte, n int) []byte {
	out := make([]byte, 0, n+sha256.Size)
	var ctr [4]byte
	for i := uint32(0); len(out) < n; i++ {
		binary.BigEndian.PutUint32(ctr[:], i)
		h := sha256.New()
		h.Write([]byte(domain))
		h.Write(ctr[:])
		h.Write(secret)
		out = h.Sum(out)
	}
	return out[:n]
}

// Mask XORs data with a Stream-derived pad, returning a fresh slice. It
// is its own inverse and is how BasicIdent/FullIdent blind σ and M.
func Mask(domain string, secret, data []byte) []byte {
	pad := Stream(domain, secret, len(data))
	out := make([]byte, len(data))
	for i := range data {
		out[i] = data[i] ^ pad[i]
	}
	return out
}

// ScalarSeed hashes the length-framed inputs into n bytes for
// ec.Curve.ScalarFromWide to reduce into [1, q−1] — together the H3 role
// of the Fujisaki–Okamoto transform (r = H3(σ, M)) and the IBS
// challenge. n is 8 more than a scalar's width: the 64 extra bits make
// the reduced value uniform.
func ScalarSeed(domain string, n int, parts ...[]byte) []byte {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, p := range parts {
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	return Stream(domain+"/expand", h.Sum(nil), n)
}

// AttributeDigest computes the paper's I = SHA1(A ‖ Nonce) (§V.D
// notation). The digest is what gets hashed onto the curve to form the
// per-message IBE identity; the nonce makes every message's public key
// fresh, which is the paper's revocation mechanism.
func AttributeDigest(attribute string, nonce []byte) []byte {
	h := sha1.New()
	h.Write([]byte(attribute))
	h.Write(nonce)
	return h.Sum(nil)
}

// SessionKey derives a fixed-size symmetric key of the requested length
// from a pairing value (the paper's K = ê(sP, rI) feeding DES).
func SessionKey(pairingValue []byte, keyLen int) []byte {
	return Stream("mwskit/session-key/v1", pairingValue, keyLen)
}
