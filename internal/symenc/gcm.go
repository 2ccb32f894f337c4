package symenc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"io"
)

// gcmScheme is AES-GCM with a random 12-byte nonce carried as the
// ciphertext prefix.
type gcmScheme struct {
	name   string
	keyLen int
}

func (s *gcmScheme) Name() string { return s.name }
func (s *gcmScheme) KeyLen() int  { return s.keyLen }

func (s *gcmScheme) aead(key []byte) (cipher.AEAD, error) {
	if len(key) != s.keyLen {
		return nil, fmt.Errorf("symenc: %s needs a %d-byte key, got %d", s.name, s.keyLen, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

func (s *gcmScheme) Seal(key, plaintext, aad []byte) ([]byte, error) {
	aead, err := s.aead(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("symenc: nonce: %w", err)
	}
	return aead.Seal(nonce, nonce, plaintext, aad), nil
}

func (s *gcmScheme) Open(key, ciphertext, aad []byte) ([]byte, error) {
	aead, err := s.aead(key)
	if err != nil {
		return nil, err
	}
	ns := aead.NonceSize()
	if len(ciphertext) < ns+aead.Overhead() {
		return nil, ErrAuth
	}
	pt, err := aead.Open(nil, ciphertext[:ns], ciphertext[ns:], aad)
	if err != nil {
		return nil, ErrAuth
	}
	return pt, nil
}

// The two schemes every binary links.
var (
	AES128GCM Scheme = &gcmScheme{name: "AES-128-GCM", keyLen: 16}
	AES256GCM Scheme = &gcmScheme{name: "AES-256-GCM", keyLen: 32}
)

func init() {
	Register(AES128GCM)
	Register(AES256GCM)
}
