package attr

import (
	"bytes"
	"crypto/rand"
	"strings"
	"testing"
)

func TestAttributeValidate(t *testing.T) {
	valid := []Attribute{
		"ELECTRIC-APTCOMPLEX-SV-CA",
		"WATER-TOWER.7-PGH_PA",
		"A",
		"GAS-123",
		Attribute(strings.Repeat("X", MaxAttributeLen)),
	}
	for _, a := range valid {
		if err := a.Validate(); err != nil {
			t.Errorf("Validate(%q) = %v, want nil", a, err)
		}
	}
	invalid := []Attribute{
		"",
		"-LEADING",
		"TRAILING-",
		"lowercase",
		"HAS SPACE",
		"UNICODE-é",
		Attribute(strings.Repeat("X", MaxAttributeLen+1)),
	}
	for _, a := range invalid {
		if err := a.Validate(); err == nil {
			t.Errorf("Validate(%q) accepted invalid attribute", a)
		}
	}
}

func TestNonceUniqueness(t *testing.T) {
	seen := make(map[Nonce]bool)
	for i := 0; i < 100; i++ {
		n, err := NewNonce(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if seen[n] {
			t.Fatal("duplicate nonce drawn")
		}
		seen[n] = true
	}
}

func TestNonceFromBytes(t *testing.T) {
	raw := bytes.Repeat([]byte{0xAB}, NonceLen)
	n, err := NonceFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(n[:], raw) {
		t.Fatal("round trip mismatch")
	}
	if _, err := NonceFromBytes(raw[:10]); err == nil {
		t.Error("short nonce accepted")
	}
	if _, err := NonceFromBytes(append(raw, 0)); err == nil {
		t.Error("long nonce accepted")
	}
}

func TestNonceString(t *testing.T) {
	n, _ := NonceFromBytes(bytes.Repeat([]byte{0x0F}, NonceLen))
	if got := n.String(); got != strings.Repeat("0f", NonceLen) {
		t.Errorf("String() = %q", got)
	}
}

func TestIdentityBinding(t *testing.T) {
	n1, _ := NewNonce(rand.Reader)
	n2, _ := NewNonce(rand.Reader)
	a := Attribute("ELECTRIC-APT-SV-CA")
	b := Attribute("WATER-APT-SV-CA")

	if bytes.Equal(Identity(a, n1), Identity(a, n2)) {
		t.Error("identity insensitive to nonce — revocation would fail")
	}
	if bytes.Equal(Identity(a, n1), Identity(b, n1)) {
		t.Error("identity insensitive to attribute")
	}
	if !bytes.Equal(Identity(a, n1), Identity(a, n1)) {
		t.Error("identity not deterministic")
	}
}

func TestIDString(t *testing.T) {
	if ID(42).String() != "42" {
		t.Errorf("ID(42).String() = %q", ID(42).String())
	}
}
