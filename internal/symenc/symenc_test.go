// The contract suite runs over every scheme this test binary registers:
// the two production AES-GCM profiles and, through the blank import, the
// three paper-era ciphers of experiments/papercipher. That no binary
// registers more than the two is held by scripts/check.sh and by
// internal/rclient's TestUnknownSchemeIsLocated.
package symenc_test

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	_ "mwskit/experiments/papercipher"
	. "mwskit/internal/symenc"
)

func allSchemes(t *testing.T) []Scheme {
	t.Helper()
	names := Names()
	if len(names) != 5 {
		t.Fatalf("expected 5 registered schemes, got %v", names)
	}
	out := make([]Scheme, 0, len(names))
	for _, n := range names {
		s, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func randKey(t *testing.T, s Scheme) []byte {
	t.Helper()
	k := make([]byte, s.KeyLen())
	if _, err := rand.Read(k); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRegistry(t *testing.T) {
	want := []string{"3DES-CBC-HMAC", "AES-128-GCM", "AES-256-GCM", "BLOWFISH-CBC-HMAC", "DES-CBC-HMAC"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	if _, err := ByName("ROT13"); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("unknown scheme: got %v, want ErrUnknownScheme", err)
	}
	if Default() != AES128GCM || Default().Name() != "AES-128-GCM" {
		t.Error("unexpected default scheme")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	msgs := [][]byte{
		{},
		[]byte("x"),
		[]byte("a smart meter reading travelling through the warehouse"),
		bytes.Repeat([]byte{0x5A}, 10000),
	}
	for _, s := range allSchemes(t) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			key := randKey(t, s)
			for _, msg := range msgs {
				aad := []byte("attr=ELECTRIC;nonce=1")
				ct, err := s.Seal(key, msg, aad)
				if err != nil {
					t.Fatalf("Seal(%d bytes): %v", len(msg), err)
				}
				if bytes.Contains(ct, msg) && len(msg) > 8 {
					t.Fatal("ciphertext contains plaintext")
				}
				pt, err := s.Open(key, ct, aad)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				if !bytes.Equal(pt, msg) {
					t.Fatalf("round trip mismatch for %d-byte message", len(msg))
				}
			}
		})
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	for _, s := range allSchemes(t) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			key := randKey(t, s)
			ct, err := s.Seal(key, []byte("authentic"), []byte("aad"))
			if err != nil {
				t.Fatal(err)
			}
			// Flip each byte in turn; every mutation must be rejected.
			for i := range ct {
				mutated := append([]byte(nil), ct...)
				mutated[i] ^= 0x01
				if _, err := s.Open(key, mutated, []byte("aad")); err == nil {
					t.Fatalf("bit flip at byte %d accepted", i)
				}
			}
		})
	}
}

func TestOpenRejectsWrongAAD(t *testing.T) {
	for _, s := range allSchemes(t) {
		key := randKey(t, s)
		ct, err := s.Seal(key, []byte("bound to aad"), []byte("attr=A1"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Open(key, ct, []byte("attr=A2")); err == nil {
			t.Errorf("%s: wrong AAD accepted", s.Name())
		}
		if _, err := s.Open(key, ct, nil); err == nil {
			t.Errorf("%s: missing AAD accepted", s.Name())
		}
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	for _, s := range allSchemes(t) {
		key := randKey(t, s)
		other := randKey(t, s)
		ct, err := s.Seal(key, []byte("secret"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Open(other, ct, nil); err == nil {
			t.Errorf("%s: wrong key accepted", s.Name())
		}
	}
}

func TestOpenRejectsTruncation(t *testing.T) {
	for _, s := range allSchemes(t) {
		key := randKey(t, s)
		ct, err := s.Seal(key, []byte("some message body"), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, len(ct) / 2, len(ct) - 1} {
			if _, err := s.Open(key, ct[:n], nil); err == nil {
				t.Errorf("%s: truncation to %d bytes accepted", s.Name(), n)
			}
		}
	}
}

func TestSealRandomized(t *testing.T) {
	for _, s := range allSchemes(t) {
		key := randKey(t, s)
		a, err := s.Seal(key, []byte("same message"), nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Seal(key, []byte("same message"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, b) {
			t.Errorf("%s: two seals of the same message are identical", s.Name())
		}
	}
}

func TestWrongKeyLengthRejected(t *testing.T) {
	for _, s := range allSchemes(t) {
		if _, err := s.Seal(make([]byte, s.KeyLen()+1), []byte("m"), nil); err == nil {
			t.Errorf("%s: oversized key accepted by Seal", s.Name())
		}
		if _, err := s.Open(make([]byte, s.KeyLen()-1), []byte("ct"), nil); err == nil {
			t.Errorf("%s: undersized key accepted by Open", s.Name())
		}
	}
}
