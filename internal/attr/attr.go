// Package attr implements the attribute machinery of the paper's design
// (§V): attribute strings that characterize eligible receiving clients
// (e.g. "ELECTRIC-APTCOMPLEX-SV-CA"), per-message nonces that make every
// IBE public key fresh (the revocation device of §V.B), and attribute IDs
// (AIDs) — the indirection that lets the MWS reference an attribute
// toward an RC without revealing the attribute itself.
package attr

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strings"

	"mwskit/internal/kdf"
)

// MaxAttributeLen bounds attribute strings; generous but prevents
// protocol-frame abuse.
const MaxAttributeLen = 256

// Attribute is a string characterizing a class of eligible receiving
// clients. Attributes are uppercase tokens joined by '-', mirroring the
// paper's examples.
type Attribute string

// Validate checks the attribute grammar: non-empty, bounded, characters
// limited to A–Z, 0–9, '-', '.' and '_' with no leading/trailing '-'.
func (a Attribute) Validate() error {
	if len(a) == 0 {
		return errors.New("attr: empty attribute")
	}
	if len(a) > MaxAttributeLen {
		return fmt.Errorf("attr: attribute longer than %d bytes", MaxAttributeLen)
	}
	if strings.HasPrefix(string(a), "-") || strings.HasSuffix(string(a), "-") {
		return errors.New("attr: attribute may not start or end with '-'")
	}
	for i := 0; i < len(a); i++ {
		c := a[i]
		switch {
		case c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.', c == '_':
		default:
			return fmt.Errorf("attr: invalid character %q at position %d", c, i)
		}
	}
	return nil
}

// NonceLen is the byte length of a message nonce.
const NonceLen = 16

// Nonce is the per-message freshness value appended to the attribute
// before hashing. Because the IBE identity is SHA1(A ‖ Nonce), a fresh
// nonce per message yields a fresh public/private key pair per message —
// this is what makes revocation effective for future messages (§III iii):
// a revoked RC's old private keys never match new nonces.
type Nonce [NonceLen]byte

// NewNonce draws a random nonce.
func NewNonce(rng io.Reader) (Nonce, error) {
	var n Nonce
	if _, err := io.ReadFull(rng, n[:]); err != nil {
		return Nonce{}, fmt.Errorf("attr: nonce: %w", err)
	}
	return n, nil
}

// NonceFromBytes copies a 16-byte slice into a Nonce.
func NonceFromBytes(b []byte) (Nonce, error) {
	var n Nonce
	if len(b) != NonceLen {
		return n, fmt.Errorf("attr: nonce must be %d bytes, got %d", NonceLen, len(b))
	}
	copy(n[:], b)
	return n, nil
}

// String renders the nonce in hex (the paper shows decimal nonces; hex is
// equivalent and fixed-width).
func (n Nonce) String() string { return hex.EncodeToString(n[:]) }

// Identity computes the IBE identity bytes for (attribute, nonce):
// the paper's I = SHA1(A ‖ Nonce) (§V.D). This value is what gets hashed
// onto the curve as Q_I, and is also the lookup key a retrieving client
// presents to the PKG (as AID ‖ Nonce, with the PKG substituting A for
// the AID).
func Identity(a Attribute, n Nonce) []byte {
	return kdf.AttributeDigest(string(a), n[:])
}

// ID is an attribute identifier (the paper's "Attribute ID"): an opaque
// handle the MWS hands to retrieving clients in place of the attribute
// string so that clients never learn their own attributes (§V.D, Table 1).
type ID uint64

// String renders the AID in decimal, as in the paper's Table 1.
func (id ID) String() string { return fmt.Sprintf("%d", uint64(id)) }

// Binding is one row of the paper's Table 1: a grant of an attribute to
// an identity, named by its per-grant attribute ID. The policy database
// holds the rows; a ticket carries one identity's rows to the PKG.
type Binding struct {
	Identity  string
	Attribute Attribute
	AID       ID
}

// Set is an ordered collection of distinct attributes, convenience for
// policy rows.
type Set []Attribute

// RandReader is the package's entropy source, swappable in tests.
var RandReader io.Reader = rand.Reader
