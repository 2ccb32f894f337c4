package kdf

import (
	"bytes"
	"crypto/sha1"
	"testing"
)

func TestStreamDeterministic(t *testing.T) {
	a := Stream("d", []byte("secret"), 64)
	b := Stream("d", []byte("secret"), 64)
	if !bytes.Equal(a, b) {
		t.Fatal("Stream not deterministic")
	}
}

func TestStreamLengths(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 64, 100, 1000} {
		out := Stream("d", []byte("s"), n)
		if len(out) != n {
			t.Fatalf("Stream length %d, want %d", len(out), n)
		}
	}
}

func TestStreamPrefixConsistency(t *testing.T) {
	// Counter-mode expansion means shorter outputs are prefixes of longer
	// ones for the same inputs — callers rely on this never silently
	// changing.
	long := Stream("d", []byte("s"), 100)
	short := Stream("d", []byte("s"), 40)
	if !bytes.Equal(long[:40], short) {
		t.Fatal("Stream outputs are not prefix-consistent")
	}
}

func TestStreamDomainSeparation(t *testing.T) {
	a := Stream("domain-a", []byte("s"), 32)
	b := Stream("domain-b", []byte("s"), 32)
	if bytes.Equal(a, b) {
		t.Fatal("different domains produced the same stream")
	}
	c := Stream("domain-a", []byte("t"), 32)
	if bytes.Equal(a, c) {
		t.Fatal("different secrets produced the same stream")
	}
}

func TestScalarSeedDeterministicAndSensitive(t *testing.T) {
	const n = 28 // a 160-bit scalar plus 64 bits
	a := ScalarSeed("d", n, []byte("sigma"), []byte("msg"))
	if len(a) != n {
		t.Fatalf("ScalarSeed length %d, want %d", len(a), n)
	}
	if !bytes.Equal(a, ScalarSeed("d", n, []byte("sigma"), []byte("msg"))) {
		t.Fatal("ScalarSeed not deterministic")
	}
	if bytes.Equal(a, ScalarSeed("d", n, []byte("sigma"), []byte("msg2"))) {
		t.Fatal("ScalarSeed insensitive to message change")
	}
	// Length-prefixed part hashing: ("ab","c") must differ from ("a","bc").
	d1 := ScalarSeed("d", n, []byte("ab"), []byte("c"))
	d2 := ScalarSeed("d", n, []byte("a"), []byte("bc"))
	if bytes.Equal(d1, d2) {
		t.Fatal("ScalarSeed part boundaries are ambiguous")
	}
}

func TestAttributeDigestMatchesSHA1(t *testing.T) {
	// The paper specifies I = SHA1(A ‖ Nonce) (§V.D); pin the exact
	// construction so protocol compatibility never drifts.
	attr := "ELECTRIC-APTCOMPLEX-SV-CA"
	nonce := []byte("123141311231123464")
	want := sha1.Sum(append([]byte(attr), nonce...))
	got := AttributeDigest(attr, nonce)
	if !bytes.Equal(got, want[:]) {
		t.Fatal("AttributeDigest deviates from SHA1(A‖Nonce)")
	}
	if len(got) != sha1.Size {
		t.Fatalf("digest length %d, want %d", len(got), sha1.Size)
	}
}

func TestAttributeDigestNonceSensitivity(t *testing.T) {
	a := AttributeDigest("A1", []byte("n1"))
	b := AttributeDigest("A1", []byte("n2"))
	if bytes.Equal(a, b) {
		t.Fatal("nonce change did not change the digest (revocation would break)")
	}
}

func TestSessionKeyLengths(t *testing.T) {
	pv := []byte("pairing-value-bytes")
	for _, n := range []int{8, 16, 24, 32} {
		k := SessionKey(pv, n)
		if len(k) != n {
			t.Fatalf("SessionKey length %d, want %d", len(k), n)
		}
	}
	if bytes.Equal(SessionKey(pv, 16), SessionKey([]byte("other"), 16)) {
		t.Fatal("different pairing values produced the same key")
	}
}
