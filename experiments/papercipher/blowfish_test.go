package papercipher

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

func TestPiWordsMatchPublishedConstants(t *testing.T) {
	// The first P-array entries and the first entries of each S-box as
	// published in the Blowfish specification. If the π computation
	// drifts, this catches it immediately.
	pi := piFractionWords()
	wantP := []uint32{0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344,
		0xA4093822, 0x299F31D0, 0x082EFA98, 0xEC4E6C89}
	for i, w := range wantP {
		if pi[i] != w {
			t.Fatalf("π word %d = %08X, want %08X", i, pi[i], w)
		}
	}
	// Last P entries (17th and 18th words of π's fraction).
	if pi[16] != 0x9216D5D9 || pi[17] != 0x8979FB1B {
		t.Fatalf("π P tail = %08X %08X", pi[16], pi[17])
	}
	// First entries of S-box 0 and the very last table word.
	if pi[18] != 0xD1310BA6 || pi[19] != 0x98DFB5AC {
		t.Fatalf("S0 head = %08X %08X", pi[18], pi[19])
	}
	if last := pi[piWordsNeeded-1]; last != 0x3AC372E6 {
		t.Fatalf("final S3 word = %08X, want 3AC372E6", last)
	}
}

// blowfishVectors are Eric Young's standard ECB test vectors distributed
// with the Blowfish specification.
var blowfishVectors = []struct{ key, pt, ct string }{
	{"0000000000000000", "0000000000000000", "4EF997456198DD78"},
	{"FFFFFFFFFFFFFFFF", "FFFFFFFFFFFFFFFF", "51866FD5B85ECB8A"},
	{"3000000000000000", "1000000000000001", "7D856F9A613063F2"},
	{"1111111111111111", "1111111111111111", "2466DD878B963C9D"},
	{"0123456789ABCDEF", "1111111111111111", "61F9C3802281B096"},
	{"FEDCBA9876543210", "0123456789ABCDEF", "0ACEAB0FC6A0A28D"},
	{"7CA110454A1A6E57", "01A1D6D039776742", "59C68245EB05282B"},
	{"0131D9619DC1376E", "5CD54CA83DEF57DA", "B1B8CC0B250F09A0"},
}

func TestBlowfishKnownVectors(t *testing.T) {
	for _, v := range blowfishVectors {
		key, _ := hex.DecodeString(v.key)
		pt, _ := hex.DecodeString(v.pt)
		want, _ := hex.DecodeString(v.ct)
		c, err := NewBlowfish(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		c.Encrypt(got, pt)
		if !bytes.Equal(got, want) {
			t.Errorf("key=%s pt=%s: got %X, want %s", v.key, v.pt, got, v.ct)
		}
		back := make([]byte, 8)
		c.Decrypt(back, got)
		if !bytes.Equal(back, pt) {
			t.Errorf("key=%s: decrypt did not invert encrypt", v.key)
		}
	}
}

func TestBlowfishVariableKeyLengths(t *testing.T) {
	pt := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, kl := range []int{1, 4, 8, 16, 24, 32, 56} {
		key := bytes.Repeat([]byte{0x42}, kl)
		c, err := NewBlowfish(key)
		if err != nil {
			t.Fatalf("key length %d rejected: %v", kl, err)
		}
		ct := make([]byte, 8)
		c.Encrypt(ct, pt)
		back := make([]byte, 8)
		c.Decrypt(back, ct)
		if !bytes.Equal(back, pt) {
			t.Fatalf("key length %d: round trip failed", kl)
		}
	}
}

func TestBlowfishRejectsBadKeyLengths(t *testing.T) {
	if _, err := NewBlowfish(nil); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := NewBlowfish(make([]byte, 57)); err == nil {
		t.Error("57-byte key accepted")
	}
}

func TestBlowfishInPlace(t *testing.T) {
	c, err := NewBlowfish([]byte("inplacekey"))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, 0x0123456789ABCDEF)
	orig := append([]byte(nil), buf...)
	c.Encrypt(buf, buf)
	if bytes.Equal(buf, orig) {
		t.Fatal("encryption was a no-op")
	}
	c.Decrypt(buf, buf)
	if !bytes.Equal(buf, orig) {
		t.Fatal("in-place round trip failed")
	}
}

func TestBlowfishKeySensitivity(t *testing.T) {
	pt := []byte{0, 0, 0, 0, 0, 0, 0, 0}
	c1, _ := NewBlowfish([]byte("key-one!"))
	c2, _ := NewBlowfish([]byte("key-two!"))
	ct1 := make([]byte, 8)
	ct2 := make([]byte, 8)
	c1.Encrypt(ct1, pt)
	c2.Encrypt(ct2, pt)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("different keys produced identical ciphertext")
	}
}
