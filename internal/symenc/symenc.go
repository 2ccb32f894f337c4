// Package symenc is the symmetric-encryption layer of the MWS protocol:
// one authenticated-encryption interface, a registry keyed by the scheme
// name every stored message carries, and the two schemes the binaries
// link — AES128GCM (the default) and AES256GCM (tickets, sealed keys).
// The paper encrypts message bodies with "any encryption algorithm, such
// as DES or Blowfish" (§IV); those live in experiments/papercipher, which
// Registers them here for whoever imports it — no daemon or client does.
package symenc

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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

// ErrUnknownScheme is returned by ByName for a name this binary has not
// linked a scheme for.
var ErrUnknownScheme = errors.New("symenc: unknown scheme")

var registry = map[string]Scheme{}

// Register adds a scheme under its name; it is called from init functions
// only (the registry is not locked).
func Register(s Scheme) {
	if _, dup := registry[s.Name()]; dup {
		panic("symenc: duplicate scheme " + s.Name())
	}
	registry[s.Name()] = s
}

// ByName looks up a registered scheme.
func ByName(name string) (Scheme, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownScheme, name)
	}
	return s, nil
}

// Names lists the registered schemes in sorted order.
func Names() []string { return slices.Sorted(maps.Keys(registry)) }

// Default returns the scheme new deployments should use.
func Default() Scheme { return AES128GCM }
