package ticket

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"io"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/symenc"
)

var (
	rsaOnce sync.Once
	rsaKey  *rsa.PrivateKey
)

func testRSA(t *testing.T) *rsa.PrivateKey {
	t.Helper()
	rsaOnce.Do(func() {
		var err error
		rsaKey, err = rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			panic(err)
		}
	})
	return rsaKey
}

func testMWSPKGKey(t *testing.T) []byte {
	t.Helper()
	k := make([]byte, 64) // AES-256-GCM KeyLen via symenc is 32; use exact
	k = k[:32]
	if _, err := rand.Read(k); err != nil {
		t.Fatal(err)
	}
	return k
}

func sampleTicket(t *testing.T) *Ticket {
	t.Helper()
	sk, err := NewSessionKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return &Ticket{
		RC: "c-services",
		Bindings: []attr.Binding{
			{Identity: "c-services", Attribute: "ELECTRIC-APT-SV-CA", AID: 1},
			{Identity: "c-services", Attribute: "WATER-APT-SV-CA", AID: 2},
		},
		SessionKey: sk,
		IssuedAt:   1278000000,
	}
}

func TestTicketSealOpen(t *testing.T) {
	key := testMWSPKGKey(t)
	tk := sampleTicket(t)
	blob, err := tk.Seal(key)
	if err != nil {
		t.Fatal(err)
	}
	// The attribute strings must not appear in the sealed blob — the whole
	// point of the ticket is hiding attributes from the RC that carries it.
	if bytes.Contains(blob, []byte("ELECTRIC-APT-SV-CA")) {
		t.Fatal("sealed ticket leaks attribute strings")
	}
	back, err := OpenTicket(key, blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.RC != tk.RC || back.IssuedAt != tk.IssuedAt {
		t.Fatal("ticket metadata mismatch")
	}
	if !bytes.Equal(back.SessionKey, tk.SessionKey) {
		t.Fatal("session key mismatch")
	}
	if len(back.Bindings) != 2 || back.Bindings[0] != tk.Bindings[0] || back.Bindings[1] != tk.Bindings[1] {
		t.Fatalf("bindings mismatch: %+v", back.Bindings)
	}
}

func TestTicketWrongKeyRejected(t *testing.T) {
	tk := sampleTicket(t)
	blob, err := tk.Seal(testMWSPKGKey(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTicket(testMWSPKGKey(t), blob); err == nil {
		t.Fatal("ticket opened under the wrong MWS-PKG key")
	}
}

func TestTicketTamperRejected(t *testing.T) {
	key := testMWSPKGKey(t)
	blob, err := sampleTicket(t).Seal(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(blob); i += 7 {
		mutated := append([]byte(nil), blob...)
		mutated[i] ^= 1
		if _, err := OpenTicket(key, mutated); err == nil {
			t.Fatalf("tampered ticket (byte %d) accepted", i)
		}
	}
}

func TestTicketValidation(t *testing.T) {
	key := testMWSPKGKey(t)
	empty := &Ticket{SessionKey: make([]byte, SessionKeyLen)}
	if _, err := empty.Seal(key); err == nil {
		t.Error("ticket without RC sealed")
	}
	badKey := sampleTicket(t)
	badKey.SessionKey = badKey.SessionKey[:7]
	if _, err := badKey.Seal(key); err == nil {
		t.Error("ticket with short session key sealed")
	}
}

func TestAttributeByAID(t *testing.T) {
	tk := sampleTicket(t)
	a, ok := tk.AttributeByAID(2)
	if !ok || a != "WATER-APT-SV-CA" {
		t.Fatalf("AttributeByAID(2) = %q, %v", a, ok)
	}
	if _, ok := tk.AttributeByAID(99); ok {
		t.Fatal("unknown AID resolved")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	priv := testRSA(t)
	sk, _ := NewSessionKey(rand.Reader)
	tok := &Token{SessionKey: sk, TicketBlob: []byte("opaque-sealed-ticket-bytes")}
	blob, err := SealToken(rand.Reader, &priv.PublicKey, tok)
	if err != nil {
		t.Fatal(err)
	}
	// The session key must not be visible in the token.
	if bytes.Contains(blob, sk) {
		t.Fatal("token leaks the session key")
	}
	back, err := OpenToken(priv, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.SessionKey, sk) || !bytes.Equal(back.TicketBlob, tok.TicketBlob) {
		t.Fatal("token round trip mismatch")
	}
}

func TestTokenWrongPrivateKeyRejected(t *testing.T) {
	priv := testRSA(t)
	other, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	sk, _ := NewSessionKey(rand.Reader)
	blob, err := SealToken(rand.Reader, &priv.PublicKey, &Token{SessionKey: sk, TicketBlob: []byte("tb")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenToken(other, blob); err == nil {
		t.Fatal("token opened with the wrong private key")
	}
}

func TestTokenTamperRejected(t *testing.T) {
	priv := testRSA(t)
	sk, _ := NewSessionKey(rand.Reader)
	blob, err := SealToken(rand.Reader, &priv.PublicKey, &Token{SessionKey: sk, TicketBlob: []byte("tb")})
	if err != nil {
		t.Fatal(err)
	}
	mutated := append([]byte(nil), blob...)
	mutated[len(mutated)-1] ^= 1
	if _, err := OpenToken(priv, mutated); err == nil {
		t.Fatal("tampered token accepted")
	}
	if _, err := OpenToken(priv, blob[:10]); err == nil {
		t.Fatal("truncated token accepted")
	}
}

func TestTokenSessionKeyLength(t *testing.T) {
	priv := testRSA(t)
	if _, err := SealToken(rand.Reader, &priv.PublicKey, &Token{SessionKey: []byte("short")}); err == nil {
		t.Fatal("short session key accepted")
	}
}

func TestAuthenticatorRoundTrip(t *testing.T) {
	sk, _ := NewSessionKey(rand.Reader)
	now := time.Unix(1278000000, 0)
	blob, err := SealAuthenticator(sk, &Authenticator{RC: "rc1", Timestamp: now})
	if err != nil {
		t.Fatal(err)
	}
	a, err := OpenAuthenticator(sk, blob, now.Add(30*time.Second), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if a.RC != "rc1" || !a.Timestamp.Equal(now) {
		t.Fatalf("authenticator mismatch: %+v", a)
	}
}

func TestAuthenticatorFreshness(t *testing.T) {
	sk, _ := NewSessionKey(rand.Reader)
	issued := time.Unix(1278000000, 0)
	blob, err := SealAuthenticator(sk, &Authenticator{RC: "rc1", Timestamp: issued})
	if err != nil {
		t.Fatal(err)
	}
	// Too old: replayed long after issue.
	if _, err := OpenAuthenticator(sk, blob, issued.Add(10*time.Minute), time.Minute); err != ErrStale {
		t.Fatalf("stale authenticator: err = %v, want ErrStale", err)
	}
	// Too far in the future: clock skew beyond window.
	if _, err := OpenAuthenticator(sk, blob, issued.Add(-10*time.Minute), time.Minute); err != ErrStale {
		t.Fatalf("future authenticator: err = %v, want ErrStale", err)
	}
	// Edge of window passes.
	if _, err := OpenAuthenticator(sk, blob, issued.Add(59*time.Second), time.Minute); err != nil {
		t.Fatalf("in-window authenticator rejected: %v", err)
	}
}

func TestAuthenticatorWrongSessionKey(t *testing.T) {
	sk1, _ := NewSessionKey(rand.Reader)
	sk2, _ := NewSessionKey(rand.Reader)
	now := time.Now()
	blob, err := SealAuthenticator(sk1, &Authenticator{RC: "rc1", Timestamp: now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAuthenticator(sk2, blob, now, time.Minute); err == nil {
		t.Fatal("authenticator opened under the wrong session key")
	}
}

// TestNewSessionKeyFailureReturnsNoKey: a draw that cannot fill the key —
// a reader that runs dry after 5 bytes, or one that errors — returns a
// nil key with the error, never the partly filled slice, so a caller that
// ignores the error has no half-random key to go on with.
func TestNewSessionKeyFailureReturnsNoKey(t *testing.T) {
	for name, r := range map[string]io.Reader{
		"short":    io.LimitReader(rand.Reader, 5),
		"erroring": iotest.ErrReader(errors.New("entropy source down")),
	} {
		k, err := NewSessionKey(r)
		if err == nil {
			t.Fatalf("%s reader: NewSessionKey succeeded", name)
		}
		if k != nil {
			t.Fatalf("%s reader: NewSessionKey returned a %d-byte key alongside %v", name, len(k), err)
		}
	}
}

// TestSessionPayloadRoles: the two kinds of payload sealed under one
// RC–PKG session key are told apart by their AAD — an extracted key does
// not open as a trapdoor payload, nor the reverse — and the AAD strings
// are the ones every deployed peer already uses.
func TestSessionPayloadRoles(t *testing.T) {
	sk, _ := NewSessionKey(rand.Reader)
	plain := []byte("marshalled key or trapdoor")
	roles := []struct {
		name string
		aad  string
		seal func(sessionKey, plain []byte) ([]byte, error)
		open func(sessionKey, sealed []byte) ([]byte, error)
	}{
		{"extracted key", "mwskit/keyserver/extract/v1", SealExtractedKey, OpenExtractedKey},
		{"trapdoor payload", "mwskit/keyserver/trapdoor/v1", SealTrapdoorPayload, OpenTrapdoorPayload},
	}
	for i, r := range roles {
		sealed, err := r.seal(sk, plain)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.open(sk, sealed); err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("%s does not open in its own role: %q, %v", r.name, got, err)
		}
		other := roles[1-i]
		if _, err := other.open(sk, sealed); err == nil {
			t.Fatalf("%s opened as %s", r.name, other.name)
		}
		if got, err := symenc.AES256GCM.Open(sk, sealed, []byte(r.aad)); err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("%s is not AES-256-GCM under AAD %q: %v", r.name, r.aad, err)
		}
	}
}
