package ibs

import (
	"bytes"
	"crypto/rand"
	"sync"
	"testing"

	"mwskit/internal/bfibe"
	"mwskit/internal/pairing"
)

var (
	envOnce sync.Once
	envP    *bfibe.Params
	envM    *bfibe.MasterKey
)

func env(t testing.TB) (*bfibe.Params, *bfibe.MasterKey) {
	t.Helper()
	envOnce.Do(func() {
		sys := pairing.ParamsTest.MustSystem()
		var err error
		envP, envM, err = bfibe.Setup(sys, rand.Reader)
		if err != nil {
			panic(err)
		}
	})
	return envP, envM
}

func TestSignVerify(t *testing.T) {
	p, m := env(t)
	id := []byte("device:meter-001")
	sk, err := m.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range [][]byte{nil, []byte("x"), []byte("a deposit frame to authenticate")} {
		sig, err := Sign(p, sk, msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(p, id, msg, sig) {
			t.Fatalf("valid signature rejected for %q", msg)
		}
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	p, m := env(t)
	id := []byte("device:meter-001")
	sk, _ := m.Extract(p, id)
	sig, err := Sign(p, sk, []byte("authentic"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(p, id, []byte("forged"), sig) {
		t.Fatal("signature verified over a different message")
	}
}

func TestVerifyRejectsWrongIdentity(t *testing.T) {
	p, m := env(t)
	sk, _ := m.Extract(p, []byte("device:meter-001"))
	sig, err := Sign(p, sk, []byte("m"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if Verify(p, []byte("device:meter-002"), []byte("m"), sig) {
		t.Fatal("signature verified under a different identity")
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	p, m := env(t)
	id := []byte("device:meter-001")
	sk, _ := m.Extract(p, id)
	sig, err := Sign(p, sk, []byte("m"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Swap U and V: must fail.
	swapped := &Signature{U: sig.V, V: sig.U}
	if Verify(p, id, []byte("m"), swapped) {
		t.Fatal("swapped signature components verified")
	}
	// Negate V.
	negV := &Signature{U: sig.U, V: sig.V.Neg()}
	if Verify(p, id, []byte("m"), negV) {
		t.Fatal("negated V verified")
	}
	// Nil signature.
	if Verify(p, id, []byte("m"), nil) {
		t.Fatal("nil signature verified")
	}
}

func TestSignaturesAreRandomized(t *testing.T) {
	p, m := env(t)
	id := []byte("device:meter-001")
	sk, _ := m.Extract(p, id)
	a, err := Sign(p, sk, []byte("m"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sign(p, sk, []byte("m"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if a.U.Equal(b.U) {
		t.Fatal("two signatures share randomness")
	}
	if !Verify(p, id, []byte("m"), a) || !Verify(p, id, []byte("m"), b) {
		t.Fatal("randomized signatures must both verify")
	}
}

func TestSignatureSerialization(t *testing.T) {
	p, m := env(t)
	id := []byte("device:meter-001")
	sk, _ := m.Extract(p, id)
	sig, err := Sign(p, sk, []byte("wire"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	enc := sig.Marshal(p)
	back, err := Unmarshal(p, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !back.U.Equal(sig.U) || !back.V.Equal(sig.V) {
		t.Fatal("signature round trip mismatch")
	}
	if !Verify(p, id, []byte("wire"), back) {
		t.Fatal("deserialized signature does not verify")
	}
	for _, cut := range []int{0, 3, 5, len(enc) - 1} {
		if _, err := Unmarshal(p, enc[:cut]); err == nil {
			t.Fatalf("truncation to %d accepted", cut)
		}
	}
}

func TestOneKeyServesEncryptionAndSigning(t *testing.T) {
	// The same extracted d_ID both decapsulates and signs — the property that
	// lets a PKG-registered device sign without extra key material.
	p, m := env(t)
	id := []byte("device:dual-use")
	sk, _ := m.Extract(p, id)

	enc, key, err := p.Encapsulate(id, 16, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.Decapsulate(sk, enc, 16); err != nil || !bytes.Equal(got, key) {
		t.Fatalf("decapsulation leg failed: %v", err)
	}
	sig, err := Sign(p, sk, []byte("signed"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(p, id, []byte("signed"), sig) {
		t.Fatal("signing leg failed")
	}
}

func BenchmarkIBSSign(b *testing.B) {
	p, m := env(b)
	sk, _ := m.Extract(p, []byte("device:bench"))
	msg := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sign(p, sk, msg, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIBSVerify(b *testing.B) {
	p, m := env(b)
	id := []byte("device:bench")
	sk, _ := m.Extract(p, id)
	msg := make([]byte, 256)
	sig, err := Sign(p, sk, msg, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(p, id, msg, sig) {
			b.Fatal("verify failed")
		}
	}
}
