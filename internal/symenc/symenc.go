// Package symenc is the symmetric-encryption layer of the MWS protocol.
// The paper encrypts message bodies with "any encryption algorithm, such
// as DES or Blowfish" (§IV) keyed by the pairing-derived session key; this
// package provides those exact choices plus modern replacements behind a
// single authenticated-encryption interface:
//
//	DES-CBC-HMAC       — the paper's prototype cipher (kept for fidelity)
//	3DES-CBC-HMAC      — the era-appropriate hardening of DES
//	BLOWFISH-CBC-HMAC  — the paper's named alternative, implemented from
//	                     the specification in this package (π-derived boxes)
//	AES-128-GCM        — the modern default
//	AES-256-GCM        — the high-security profile
//
// The legacy block ciphers are wrapped in encrypt-then-MAC (HMAC-SHA256)
// so every scheme provides authenticated encryption; the paper's separate
// integrity requirement (§III ii) is handled at the protocol layer with
// device MACs, but the symmetric layer refuses to ship malleable
// ciphertext regardless.
package symenc

import (
	"errors"
	"fmt"
	"sort"
)

// Scheme is an authenticated symmetric encryption scheme. Implementations
// are stateless and safe for concurrent use; per-message randomness (IV or
// nonce) is drawn inside Seal and carried in the ciphertext.
type Scheme interface {
	// Name returns the registry identifier, e.g. "AES-128-GCM".
	Name() string
	// KeyLen returns the total key material Seal/Open consume, including
	// any internal MAC subkey.
	KeyLen() int
	// Seal encrypts and authenticates plaintext, binding aad.
	Seal(key, plaintext, aad []byte) ([]byte, error)
	// Open verifies and decrypts a Seal output with the same aad.
	Open(key, ciphertext, aad []byte) ([]byte, error)
}

// ErrAuth is returned by Open when authentication fails. Like
// bfibe.ErrDecrypt it is deliberately cause-free.
var ErrAuth = errors.New("symenc: message authentication failed")

var registry = map[string]Scheme{}

func register(s Scheme) {
	if _, dup := registry[s.Name()]; dup {
		panic("symenc: duplicate scheme " + s.Name())
	}
	registry[s.Name()] = s
}

// ByName looks up a registered scheme.
func ByName(name string) (Scheme, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("symenc: unknown scheme %q", name)
	}
	return s, nil
}

// Names lists the registered schemes in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Default returns the scheme new deployments should use.
func Default() Scheme { s, _ := ByName("AES-128-GCM"); return s }
