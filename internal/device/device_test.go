package device

import (
	"bytes"
	"crypto/rand"
	"sync"
	"testing"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/macauth"
	"mwskit/internal/pairing"
	"mwskit/internal/symenc"
	"mwskit/internal/wire"
)

var (
	envOnce sync.Once
	envP    *bfibe.Params
	envM    *bfibe.MasterKey
)

func env(t *testing.T) (*bfibe.Params, *bfibe.MasterKey) {
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

func testKey() []byte { return bytes.Repeat([]byte{7}, macauth.KeyLen) }

func TestNewValidation(t *testing.T) {
	params, _ := env(t)
	if _, err := New("", testKey(), params); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := New("d", []byte("short"), params); err == nil {
		t.Error("short MAC key accepted")
	}
	if _, err := New("d", testKey(), nil); err == nil {
		t.Error("nil params accepted")
	}
	d, err := New("d", testKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID() != "d" {
		t.Error("ID lost")
	}
	if d.scheme != symenc.Default() {
		t.Error("default scheme wrong")
	}
}

func TestPrepareDepositStructure(t *testing.T) {
	params, _ := env(t)
	now := time.Unix(1278000000, 0)
	d, err := New("meter-1", testKey(), params, device0(now))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("reading=42")
	req, err := d.PrepareDeposit("ELECTRIC-X", payload)
	if err != nil {
		t.Fatal(err)
	}
	if req.DeviceID != "meter-1" || req.Timestamp != now.Unix() {
		t.Fatalf("metadata wrong: %+v", req)
	}
	if req.Attribute != "ELECTRIC-X" {
		t.Fatal("attribute wrong")
	}
	if len(req.Nonce) != attr.NonceLen {
		t.Fatalf("nonce length %d", len(req.Nonce))
	}
	if bytes.Contains(req.Ciphertext, payload) {
		t.Fatal("ciphertext leaks plaintext")
	}
	// The MAC verifies under the shared key and covers every field.
	if !macauth.Verify(testKey(), req.MAC, req.MACParts()...) {
		t.Fatal("MAC does not verify")
	}
	// The encapsulation point parses and lies on the curve.
	if _, err := bfibe.UnmarshalEncapsulation(params, req.U); err != nil {
		t.Fatalf("U malformed: %v", err)
	}
}

// device0 pins the clock for deterministic timestamps.
func device0(now time.Time) Option { return WithClock(func() time.Time { return now }) }

func TestPrepareDepositFreshNoncePerMessage(t *testing.T) {
	params, _ := env(t)
	d, err := New("m", testKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.PrepareDeposit("A1", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.PrepareDeposit("A1", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Nonce, b.Nonce) {
		t.Fatal("nonce reuse across messages — revocation would break")
	}
	if bytes.Equal(a.U, b.U) {
		t.Fatal("transport point reuse across messages")
	}
	if bytes.Equal(a.Ciphertext, b.Ciphertext) {
		t.Fatal("deterministic ciphertext")
	}
}

func TestPrepareDepositRejectsBadAttribute(t *testing.T) {
	params, _ := env(t)
	d, err := New("m", testKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PrepareDeposit("bad attribute", []byte("x")); err == nil {
		t.Fatal("invalid attribute accepted")
	}
}

func TestDepositDecryptableByExtractedKey(t *testing.T) {
	// Full offline loop: device prepares, we play PKG + RC manually.
	params, master := env(t)
	scheme := symenc.Default()
	d, err := New("m", testKey(), params, WithScheme(scheme))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the reading")
	req, err := d.PrepareDeposit("ELECTRIC-X", payload)
	if err != nil {
		t.Fatal(err)
	}
	nonce, err := attr.NonceFromBytes(req.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	identity := attr.Identity("ELECTRIC-X", nonce)
	sk, err := master.Extract(params, identity)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := bfibe.UnmarshalEncapsulation(params, req.U)
	if err != nil {
		t.Fatal(err)
	}
	key, err := params.Decapsulate(sk, enc, scheme.KeyLen())
	if err != nil {
		t.Fatal(err)
	}
	aad := wire.MessageAAD(req.DeviceID, req.Timestamp, req.Nonce, req.U)
	got, err := scheme.Open(key, req.Ciphertext, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("offline round trip mismatch")
	}
}

func TestWithSchemeOption(t *testing.T) {
	params, _ := env(t)
	d, err := New("m", testKey(), params, WithScheme(symenc.AES256GCM))
	if err != nil {
		t.Fatal(err)
	}
	req, err := d.PrepareDeposit("A1", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Scheme != "AES-256-GCM" {
		t.Fatalf("scheme = %s", req.Scheme)
	}
}
