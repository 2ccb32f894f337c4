// Package papercipher holds the message ciphers the paper names — "any
// encryption algorithm, such as DES or Blowfish" (§IV; the prototype used
// DES, §V.C) — outside the production closure:
//
//	DES-CBC-HMAC       — the paper's prototype cipher
//	3DES-CBC-HMAC      — the era-appropriate hardening of DES
//	BLOWFISH-CBC-HMAC  — the paper's named alternative, implemented from
//	                     the specification here (π-derived boxes)
//
// Each is CBC under encrypt-then-MAC (HMAC-SHA256), so all meet
// symenc.Scheme's authenticated-encryption contract. Importing the package
// registers them with symenc: tests and E11 do, and scripts/check.sh fails
// the build if a daemon, client, example or bench/ does (DESIGN.md §2).
package papercipher

import (
	"crypto/cipher"
	"crypto/des"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"mwskit/internal/symenc"
)

// macLen is the HMAC-SHA256 key and tag length used by the CBC schemes.
const macLen = 32

// cbcScheme is CBC encryption with PKCS#7 padding followed by
// HMAC-SHA256 over IV ‖ ciphertext ‖ aad (encrypt-then-MAC). Key material
// is enc-key ‖ mac-key.
type cbcScheme struct {
	name      string
	encKeyLen int
	factory   func(encKey []byte) (cipher.Block, error)
}

func (s *cbcScheme) Name() string { return s.name }
func (s *cbcScheme) KeyLen() int  { return s.encKeyLen + macLen }

func (s *cbcScheme) split(key []byte) (encKey, macKey []byte, err error) {
	if len(key) != s.KeyLen() {
		return nil, nil, fmt.Errorf("papercipher: %s needs a %d-byte key, got %d", s.name, s.KeyLen(), len(key))
	}
	return key[:s.encKeyLen], key[s.encKeyLen:], nil
}

func (s *cbcScheme) Seal(key, plaintext, aad []byte) ([]byte, error) {
	encKey, macKey, err := s.split(key)
	if err != nil {
		return nil, err
	}
	block, err := s.factory(encKey)
	if err != nil {
		return nil, err
	}
	bs := block.BlockSize()
	padded := pkcs7Pad(plaintext, bs)
	out := make([]byte, bs+len(padded)+macLen)
	iv := out[:bs]
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil, fmt.Errorf("papercipher: iv: %w", err)
	}
	cipher.NewCBCEncrypter(block, iv).CryptBlocks(out[bs:bs+len(padded)], padded)
	tag := s.tag(macKey, out[:bs+len(padded)], aad)
	copy(out[bs+len(padded):], tag)
	return out, nil
}

func (s *cbcScheme) Open(key, ciphertext, aad []byte) ([]byte, error) {
	encKey, macKey, err := s.split(key)
	if err != nil {
		return nil, err
	}
	block, err := s.factory(encKey)
	if err != nil {
		return nil, err
	}
	bs := block.BlockSize()
	// Minimum: IV + one block + tag.
	if len(ciphertext) < bs+bs+macLen || (len(ciphertext)-macLen)%bs != 0 {
		return nil, symenc.ErrAuth
	}
	body := ciphertext[:len(ciphertext)-macLen]
	tag := ciphertext[len(ciphertext)-macLen:]
	if !hmac.Equal(tag, s.tag(macKey, body, aad)) {
		return nil, symenc.ErrAuth
	}
	iv, ct := body[:bs], body[bs:]
	padded := make([]byte, len(ct))
	cipher.NewCBCDecrypter(block, iv).CryptBlocks(padded, ct)
	pt, ok := pkcs7Unpad(padded, bs)
	if !ok {
		// Unreachable for authentic ciphertexts; defense in depth only.
		return nil, symenc.ErrAuth
	}
	return pt, nil
}

func (s *cbcScheme) tag(macKey, body, aad []byte) []byte {
	m := hmac.New(sha256.New, macKey)
	m.Write(body)
	m.Write(binary.BigEndian.AppendUint64(nil, uint64(len(aad))))
	m.Write(aad)
	return m.Sum(nil)
}

// pkcs7Pad appends 1..bs bytes of padding, each equal to the pad length.
func pkcs7Pad(data []byte, bs int) []byte {
	pad := bs - len(data)%bs
	out := make([]byte, len(data)+pad)
	copy(out, data)
	for i := len(data); i < len(out); i++ {
		out[i] = byte(pad)
	}
	return out
}

// pkcs7Unpad strips and validates PKCS#7 padding.
func pkcs7Unpad(data []byte, bs int) ([]byte, bool) {
	if len(data) == 0 || len(data)%bs != 0 {
		return nil, false
	}
	pad := int(data[len(data)-1])
	if pad == 0 || pad > bs || pad > len(data) {
		return nil, false
	}
	for _, b := range data[len(data)-pad:] {
		if int(b) != pad {
			return nil, false
		}
	}
	return data[:len(data)-pad], true
}

func init() {
	symenc.Register(&cbcScheme{name: "DES-CBC-HMAC", encKeyLen: 8, factory: des.NewCipher})
	symenc.Register(&cbcScheme{name: "3DES-CBC-HMAC", encKeyLen: 24, factory: des.NewTripleDESCipher})
	symenc.Register(&cbcScheme{name: "BLOWFISH-CBC-HMAC", encKeyLen: 16, factory: func(key []byte) (cipher.Block, error) {
		return NewBlowfish(key)
	}})
}
