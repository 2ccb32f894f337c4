package symenc

import (
	"bytes"
	"crypto/rand"
	"testing"
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
	if _, err := ByName("ROT13"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if Default().Name() != "AES-128-GCM" {
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

func TestPKCS7(t *testing.T) {
	for n := 0; n <= 17; n++ {
		data := bytes.Repeat([]byte{7}, n)
		padded := pkcs7Pad(data, 8)
		if len(padded)%8 != 0 {
			t.Fatalf("pad(%d) produced non-multiple length %d", n, len(padded))
		}
		back, ok := pkcs7Unpad(padded, 8)
		if !ok || !bytes.Equal(back, data) {
			t.Fatalf("unpad(pad(%d)) failed", n)
		}
	}
	if _, ok := pkcs7Unpad([]byte{1, 2, 3, 4, 5, 6, 7, 9}, 8); ok {
		t.Error("bad pad byte accepted")
	}
	if _, ok := pkcs7Unpad([]byte{1, 2, 3}, 8); ok {
		t.Error("non-block-multiple accepted")
	}
	if _, ok := pkcs7Unpad([]byte{0, 0, 0, 0, 0, 0, 0, 0}, 8); ok {
		t.Error("zero pad accepted")
	}
}
