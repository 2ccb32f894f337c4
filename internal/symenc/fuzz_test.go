package symenc_test

import (
	"bytes"
	"crypto/sha256"
	"testing"

	. "mwskit/internal/symenc"
)

// fuzzKey stretches an arbitrary fuzz seed into a key of exactly n
// bytes, so every input exercises the ciphers rather than dying on the
// key-length check.
func fuzzKey(seed []byte, n int) []byte {
	out := make([]byte, 0, n+sha256.Size)
	block := byte(0)
	for len(out) < n {
		h := sha256.New()
		h.Write([]byte{block})
		h.Write(seed)
		out = h.Sum(out)
		block++
	}
	return out[:n]
}

// FuzzSealOpenTamper drives every registered scheme through a
// Seal→Open round trip and then through single-byte tampering of the
// ciphertext and of the AAD: the round trip must return the exact
// plaintext, and any tamper must fail authentication — Open must never
// return plaintext for a modified ciphertext or a mismatched AAD. This
// is the end-to-end confidentiality contract the MWS depends on: a
// warehouse (or wire adversary) flipping ciphertext bits cannot
// produce a message a client will accept. CI runs this as a fuzz smoke
// stage; `go test` replays the seed corpus.
func FuzzSealOpenTamper(f *testing.F) {
	f.Add([]byte("seed"), []byte("the reading is 42.7 kWh"), []byte("attr-aad"), uint16(0))
	f.Add([]byte{}, []byte{}, []byte{}, uint16(1))
	f.Add([]byte{0xff}, bytes.Repeat([]byte{7}, 96), []byte(nil), uint16(37))
	f.Fuzz(func(t *testing.T, seed, plaintext, aad []byte, tamper uint16) {
		for _, name := range Names() {
			s, err := ByName(name)
			if err != nil {
				t.Fatalf("%s: ByName: %v", name, err)
			}
			key := fuzzKey(seed, s.KeyLen())

			ct, err := s.Seal(key, plaintext, aad)
			if err != nil {
				t.Fatalf("%s: Seal: %v", name, err)
			}
			back, err := s.Open(key, ct, aad)
			if err != nil {
				t.Fatalf("%s: Open of untampered ciphertext: %v", name, err)
			}
			if !bytes.Equal(back, plaintext) {
				t.Fatalf("%s: round trip changed the plaintext", name)
			}

			// Flip one bit of one ciphertext byte (position and bit chosen
			// by the fuzzer): authentication must fail.
			if len(ct) > 0 {
				mut := append([]byte(nil), ct...)
				mut[int(tamper)%len(mut)] ^= 1 << (tamper % 8)
				if pt, err := s.Open(key, mut, aad); err == nil {
					t.Fatalf("%s: Open accepted tampered ciphertext (returned %d plaintext bytes)", name, len(pt))
				}
			}

			// Tampered AAD: same ciphertext, different associated data.
			mutAAD := append(append([]byte(nil), aad...), 'x')
			if pt, err := s.Open(key, ct, mutAAD); err == nil {
				t.Fatalf("%s: Open accepted a mismatched AAD (returned %d plaintext bytes)", name, len(pt))
			}

			// Truncation must fail too, never panic.
			if len(ct) > 1 {
				if pt, err := s.Open(key, ct[:len(ct)-1], aad); err == nil {
					t.Fatalf("%s: Open accepted truncated ciphertext (returned %d plaintext bytes)", name, len(pt))
				}
			}
		}
	})
}
