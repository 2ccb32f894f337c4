package tpkg

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

func TestSplitValidation(t *testing.T) {
	p, m := env(t)
	sys := p.Sys
	if _, err := Split(m, 0, 3, sys, rand.Reader); err == nil {
		t.Error("t=0 accepted")
	}
	if _, err := Split(m, 4, 3, sys, rand.Reader); err == nil {
		t.Error("t>n accepted")
	}
	if _, err := Split(nil, 2, 3, sys, rand.Reader); err == nil {
		t.Error("nil master accepted")
	}
}

func TestThresholdExtractionMatchesDirect(t *testing.T) {
	p, m := env(t)
	const threshold, n = 3, 5
	shares, err := Split(m, threshold, n, p.Sys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAgainstMaster(p, shares[:threshold]); err != nil {
		t.Fatalf("share verification: %v", err)
	}
	identity := []byte("ELECTRIC-X||nonce")
	direct, err := m.Extract(p, identity)
	if err != nil {
		t.Fatal(err)
	}

	// Every size-t subset must reconstruct the same key.
	subsets := [][]int{{0, 1, 2}, {0, 2, 4}, {1, 3, 4}, {2, 3, 4}}
	for _, idx := range subsets {
		partials := make([]Partial, len(idx))
		for i, j := range idx {
			pt, err := shares[j].PartialExtract(p, identity)
			if err != nil {
				t.Fatal(err)
			}
			partials[i] = pt
		}
		combined, err := Combine(p, identity, partials)
		if err != nil {
			t.Fatal(err)
		}
		if !combined.D.Equal(direct.D) {
			t.Fatalf("subset %v reconstructed a different key", idx)
		}
		if !bytes.Equal(combined.ID, identity) {
			t.Fatal("identity not carried through")
		}
	}
}

func TestCombinedKeyDecrypts(t *testing.T) {
	p, m := env(t)
	shares, err := Split(m, 2, 3, p.Sys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	identity := []byte("threshold-identity")
	enc, key, err := p.Encapsulate(identity, 16, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := shares[0].PartialExtract(p, identity)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := shares[2].PartialExtract(p, identity)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := Combine(p, identity, []Partial{pa, pb})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Decapsulate(sk, enc, 16)
	if err != nil {
		t.Fatalf("threshold-extracted key failed to decapsulate: %v", err)
	}
	if !bytes.Equal(got, key) {
		t.Fatal("session key mismatch")
	}
}

func TestUnderThresholdFails(t *testing.T) {
	p, m := env(t)
	shares, err := Split(m, 3, 5, p.Sys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	identity := []byte("id")
	direct, _ := m.Extract(p, identity)

	// Two of three shares: Combine succeeds mechanically but the key is
	// wrong, and it decapsulates another session key.
	pa, _ := shares[0].PartialExtract(p, identity)
	pb, _ := shares[1].PartialExtract(p, identity)
	under, err := Combine(p, identity, []Partial{pa, pb})
	if err != nil {
		t.Fatal(err)
	}
	if under.D.Equal(direct.D) {
		t.Fatal("t−1 shares reconstructed the key — threshold property broken")
	}
	enc, key, err := p.Encapsulate(identity, 16, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := p.Decapsulate(under, enc, 16); err == nil && bytes.Equal(got, key) {
		t.Fatal("under-threshold key recovered the session key")
	}
}

func TestSingleShareRevealsNothingUsable(t *testing.T) {
	p, m := env(t)
	shares, err := Split(m, 2, 3, p.Sys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// A single share scalar is a point on a random line through s — it
	// must not equal s (probability ~2⁻¹²⁸ if it did by chance).
	if bytes.Equal(p.Sys.Curve.ScalarBytes(shares[0].Scalar), bfibe.MarshalMasterKey(p.Sys, m)) {
		t.Fatal("share equals the master secret")
	}
}

func TestCombineValidation(t *testing.T) {
	p, m := env(t)
	shares, err := Split(m, 2, 3, p.Sys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	identity := []byte("id")
	pa, _ := shares[0].PartialExtract(p, identity)
	if _, err := Combine(p, identity, nil); err == nil {
		t.Error("empty partials accepted")
	}
	if _, err := Combine(p, identity, []Partial{pa, pa}); err == nil {
		t.Error("duplicate indices accepted")
	}
	bad := pa
	bad.Index = 0
	if _, err := Combine(p, identity, []Partial{bad}); err == nil {
		t.Error("zero index accepted")
	}
}

func TestThresholdOne(t *testing.T) {
	// t=1 degenerates to plain replication: each share IS the secret.
	p, m := env(t)
	shares, err := Split(m, 1, 3, p.Sys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shares {
		if !bytes.Equal(p.Sys.Curve.ScalarBytes(sh.Scalar), bfibe.MarshalMasterKey(p.Sys, m)) {
			t.Fatal("t=1 share differs from master")
		}
	}
}

func TestVerifyAgainstMasterDetectsCorruption(t *testing.T) {
	p, m := env(t)
	shares, err := Split(m, 2, 3, p.Sys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shares[1].Scalar = p.Sys.Curve.ScalarAdd(shares[1].Scalar, shares[1].Scalar) // 2·f(2) ≠ f(2): shares are non-zero
	if err := VerifyAgainstMaster(p, shares[:2]); err == nil {
		t.Fatal("corrupted share set verified")
	}
}
