package mws

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"sync"
	"testing"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/device"
	"mwskit/internal/pairing"
	"mwskit/internal/ticket"
	"mwskit/internal/userdb"
	"mwskit/internal/wal"
	"mwskit/internal/wire"
)

var (
	envOnce   sync.Once
	envParams *bfibe.Params
	envRSA    *rsa.PrivateKey
)

// testEnv builds the shared (expensive) fixtures once.
func testEnv(t *testing.T) (*bfibe.Params, *rsa.PrivateKey) {
	t.Helper()
	envOnce.Do(func() {
		sys := pairing.ParamsTest.MustSystem()
		var err error
		envParams, _, err = bfibe.Setup(sys, rand.Reader)
		if err != nil {
			panic(err)
		}
		envRSA, err = rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			panic(err)
		}
	})
	return envParams, envRSA
}

// fakeClock is a controllable time source.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestService(t *testing.T) (*Service, *fakeClock) {
	t.Helper()
	clock := &fakeClock{t: time.Unix(1278000000, 0)}
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Dir:       t.TempDir(),
		MWSPKGKey: key,
		Sync:      wal.SyncNever,
		Now:       clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, clock
}

func registerTestDevice(t *testing.T, s *Service, clock *fakeClock, id string) *device.Device {
	t.Helper()
	params, _ := testEnv(t)
	key, err := s.RegisterDevice(id)
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New(id, key, params, device.WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{MWSPKGKey: make([]byte, 32)}); err == nil {
		t.Error("missing Dir accepted")
	}
	if _, err := New(Config{Dir: t.TempDir(), MWSPKGKey: []byte("short")}); err == nil {
		t.Error("short shared key accepted")
	}
}

func TestDepositHappyPath(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	req, err := d.PrepareDeposit("ELECTRIC-APT-SV-CA", []byte("reading=42"))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := s.Deposit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 {
		t.Fatalf("first seq = %d", seq)
	}
	if s.MessageCount() != 1 {
		t.Fatalf("count = %d", s.MessageCount())
	}
	// Second deposit gets the next sequence.
	req2, _ := d.PrepareDeposit("ELECTRIC-APT-SV-CA", []byte("reading=43"))
	seq2, err := s.Deposit(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != 1 {
		t.Fatalf("second seq = %d", seq2)
	}
}

func wireCode(t *testing.T, err error) uint32 {
	t.Helper()
	var em *wire.ErrorMsg
	if !errors.As(err, &em) {
		t.Fatalf("err = %v, want *wire.ErrorMsg", err)
	}
	return em.Code
}

func TestDepositRejectsUnknownDevice(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	req, _ := d.PrepareDeposit("A1", []byte("m"))
	req.DeviceID = "ghost-meter"
	if code := wireCode(t, errOf(s.Deposit(context.Background(), req))); code != wire.CodeAuth {
		t.Fatalf("code = %d, want CodeAuth", code)
	}
}

func errOf[T any](_ T, err error) error { return err }

func TestDepositRejectsBadMAC(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")

	t.Run("FlippedMAC", func(t *testing.T) {
		req, _ := d.PrepareDeposit("A1", []byte("m"))
		req.MAC[0] ^= 1
		if code := wireCode(t, errOf(s.Deposit(context.Background(), req))); code != wire.CodeAuth {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("TamperedCiphertext", func(t *testing.T) {
		req, _ := d.PrepareDeposit("A1", []byte("m"))
		req.Ciphertext[0] ^= 1
		if code := wireCode(t, errOf(s.Deposit(context.Background(), req))); code != wire.CodeAuth {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("SwappedAttribute", func(t *testing.T) {
		// Integrity requirement §III(ii): the MWS must detect attribute
		// swapping, otherwise a tampered message routes to the wrong RCs.
		req, _ := d.PrepareDeposit("A1", []byte("m"))
		req.Attribute = "A2"
		if code := wireCode(t, errOf(s.Deposit(context.Background(), req))); code != wire.CodeAuth {
			t.Fatalf("code = %d", code)
		}
	})
}

func TestDepositRejectsReplay(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	req, _ := d.PrepareDeposit("A1", []byte("m"))
	if _, err := s.Deposit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if code := wireCode(t, errOf(s.Deposit(context.Background(), req))); code != wire.CodeReplay {
		t.Fatalf("replay code = %d", code)
	}
}

func TestDepositRejectsStaleTimestamp(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	req, _ := d.PrepareDeposit("A1", []byte("m"))
	clock.Advance(10 * time.Minute) // message is now far in the past
	if code := wireCode(t, errOf(s.Deposit(context.Background(), req))); code != wire.CodeReplay {
		t.Fatalf("stale code = %d", code)
	}
}

func TestDepositAfterDeviceRevocation(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	if err := s.RevokeDevice("meter-1"); err != nil {
		t.Fatal(err)
	}
	req, _ := d.PrepareDeposit("A1", []byte("m"))
	if code := wireCode(t, errOf(s.Deposit(context.Background(), req))); code != wire.CodeAuth {
		t.Fatalf("code = %d", code)
	}
}

func TestDepositValidation(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	if _, err := s.Deposit(context.Background(), nil); err == nil {
		t.Error("nil deposit accepted")
	}
	req, _ := d.PrepareDeposit("A1", []byte("m"))
	req.Attribute = "not valid!"
	if code := wireCode(t, errOf(s.Deposit(context.Background(), req))); code != wire.CodeBadRequest {
		t.Errorf("bad attribute code = %d", code)
	}
	req2, _ := d.PrepareDeposit("A1", []byte("m"))
	req2.Nonce = req2.Nonce[:4]
	if code := wireCode(t, errOf(s.Deposit(context.Background(), req2))); code != wire.CodeBadRequest {
		t.Errorf("bad nonce code = %d", code)
	}
}

// enrollRC registers an RC and returns a login blob factory.
func enrollRC(t *testing.T, s *Service, clock *fakeClock, id string, password []byte) func() []byte {
	t.Helper()
	_, rsaKey := testEnv(t)
	if err := s.RegisterClient(id, password, &rsaKey.PublicKey); err != nil {
		t.Fatal(err)
	}
	cred := userdb.CredentialKey(id, password)
	return func() []byte {
		blob, err := ticket.SealAuthenticator(cred, &ticket.Authenticator{RC: id, Timestamp: clock.Now()})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
}

func TestRetrieveHappyPath(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	login := enrollRC(t, s, clock, "c-services", []byte("pw"))
	if _, err := s.Grant("c-services", "ELECTRIC-X"); err != nil {
		t.Fatal(err)
	}

	// Deposit two electric and one water message.
	for _, a := range []attr.Attribute{"ELECTRIC-X", "ELECTRIC-X", "WATER-X"} {
		req, _ := d.PrepareDeposit(a, []byte("m"))
		if _, err := s.Deposit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}

	resp, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "c-services", AuthBlob: login()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 2 {
		t.Fatalf("retrieved %d items, want 2 (policy filter)", len(resp.Items))
	}
	for _, it := range resp.Items {
		if it.AID == 0 {
			t.Fatal("item missing AID")
		}
	}
	if len(resp.TokenBlob) == 0 {
		t.Fatal("missing PKG token")
	}

	// The token decrypts with the RC's RSA key and carries a ticket
	// sealed for the PKG.
	_, rsaKey := testEnv(t)
	tok, err := ticket.OpenToken(rsaKey, resp.TokenBlob)
	if err != nil {
		t.Fatal(err)
	}
	if len(tok.SessionKey) != ticket.SessionKeyLen {
		t.Fatal("token session key wrong length")
	}
}

func TestRetrieveAuthFailures(t *testing.T) {
	s, clock := newTestService(t)
	login := enrollRC(t, s, clock, "rc-1", []byte("correct"))

	t.Run("UnknownRC", func(t *testing.T) {
		_, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "nobody", AuthBlob: login()})
		if code := wireCode(t, err); code != wire.CodeAuth {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("WrongPassword", func(t *testing.T) {
		cred := userdb.CredentialKey("rc-1", []byte("wrong"))
		blob, _ := ticket.SealAuthenticator(cred, &ticket.Authenticator{RC: "rc-1", Timestamp: clock.Now()})
		_, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "rc-1", AuthBlob: blob})
		if code := wireCode(t, err); code != wire.CodeAuth {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("IdentityMismatch", func(t *testing.T) {
		// Login blob for rc-1 presented under a different RC name: the
		// gatekeeper must compare the embedded identity.
		_, rsaKey := testEnv(t)
		if err := s.RegisterClient("rc-2", []byte("correct2"), &rsaKey.PublicKey); err != nil {
			t.Fatal(err)
		}
		cred2 := userdb.CredentialKey("rc-2", []byte("correct2"))
		blob, _ := ticket.SealAuthenticator(cred2, &ticket.Authenticator{RC: "rc-1", Timestamp: clock.Now()})
		_, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "rc-2", AuthBlob: blob})
		if code := wireCode(t, err); code != wire.CodeAuth {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("ReplayedLogin", func(t *testing.T) {
		blob := login()
		if _, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "rc-1", AuthBlob: blob}); err != nil {
			t.Fatal(err)
		}
		_, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "rc-1", AuthBlob: blob})
		if code := wireCode(t, err); code != wire.CodeReplay {
			t.Fatalf("code = %d", code)
		}
	})
	t.Run("StaleLogin", func(t *testing.T) {
		blob := login()
		clock.Advance(time.Hour)
		_, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "rc-1", AuthBlob: blob})
		if code := wireCode(t, err); code != wire.CodeAuth {
			t.Fatalf("code = %d", code)
		}
	})
}

func TestRetrieveCursorAndLimit(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	login := enrollRC(t, s, clock, "rc", []byte("pw"))
	if _, err := s.Grant("rc", "A1"); err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	for i := 0; i < 10; i++ {
		req, _ := d.PrepareDeposit("A1", []byte{byte(i)})
		seq, err := s.Deposit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		lastSeq = seq
		clock.Advance(time.Second)
	}
	resp, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "rc", AuthBlob: login(), Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 4 {
		t.Fatalf("limit ignored: %d items", len(resp.Items))
	}
	clock.Advance(time.Second)
	resp2, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "rc", AuthBlob: login(), FromSeq: lastSeq - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Items) != 2 {
		t.Fatalf("cursor wrong: %d items", len(resp2.Items))
	}
}

func TestRetrieveAfterRevocation(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	login := enrollRC(t, s, clock, "c-services", []byte("pw"))
	if _, err := s.Grant("c-services", "ELECTRIC-X"); err != nil {
		t.Fatal(err)
	}
	req, _ := d.PrepareDeposit("ELECTRIC-X", []byte("m"))
	if _, err := s.Deposit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if err := s.Revoke("c-services", "ELECTRIC-X"); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "c-services", AuthBlob: login()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 0 {
		t.Fatalf("revoked RC still sees %d messages", len(resp.Items))
	}
}

// TestRevokeAllAccess is the paper's §III(iii) bulk revocation: every grant
// the client holds is gone, its next retrieval sees nothing, and another
// client's grant on the same attribute is untouched.
func TestRevokeAllAccess(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")
	login := enrollRC(t, s, clock, "c-services", []byte("pw"))
	otherLogin := enrollRC(t, s, clock, "e-and-g", []byte("pw2"))
	for _, g := range []struct {
		rc string
		a  attr.Attribute
	}{{"c-services", "ELECTRIC-X"}, {"c-services", "WATER-X"}, {"e-and-g", "ELECTRIC-X"}} {
		if _, err := s.Grant(g.rc, g.a); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []attr.Attribute{"ELECTRIC-X", "WATER-X"} {
		req, _ := d.PrepareDeposit(a, []byte("m"))
		if _, err := s.Deposit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Second)
	}
	if err := s.RevokeAllAccess("c-services"); err != nil {
		t.Fatal(err)
	}
	for _, b := range s.PolicyTable() {
		if b.Identity == "c-services" {
			t.Fatalf("grant survived RevokeAllAccess: %+v", b)
		}
	}
	resp, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "c-services", AuthBlob: login()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 0 {
		t.Fatalf("revoked RC still sees %d messages", len(resp.Items))
	}
	resp, err = s.Retrieve(context.Background(), &wire.RetrieveRequest{RC: "e-and-g", AuthBlob: otherLogin()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 1 {
		t.Fatalf("bystander RC sees %d messages, want 1", len(resp.Items))
	}
}

func TestGrantRequiresRegisteredClient(t *testing.T) {
	s, _ := newTestService(t)
	if _, err := s.Grant("unregistered", "A1"); err == nil {
		t.Fatal("grant to unregistered client accepted")
	}
}

func TestHandleFrameDispatch(t *testing.T) {
	s, clock := newTestService(t)
	d := registerTestDevice(t, s, clock, "meter-1")

	// Ping.
	if resp := s.Handle(context.Background(), wire.Frame{Type: wire.TPing}); resp.Type != wire.TPong {
		t.Fatalf("ping -> %s", resp.Type)
	}
	// Deposit through the frame path.
	req, _ := d.PrepareDeposit("A1", []byte("m"))
	resp := s.Handle(context.Background(), wire.Frame{Type: wire.TDeposit, Payload: req.Marshal()})
	if resp.Type != wire.TDepositResp {
		t.Fatalf("deposit -> %s", resp.Type)
	}
	// Garbage payload.
	if resp := s.Handle(context.Background(), wire.Frame{Type: wire.TDeposit, Payload: []byte{1}}); resp.Type != wire.TError {
		t.Fatal("garbage deposit not rejected")
	}
	// Unknown type.
	if resp := s.Handle(context.Background(), wire.Frame{Type: wire.TExtract}); resp.Type != wire.TError {
		t.Fatal("extract should be unsupported on the MWS")
	}
}

func TestServiceDurability(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{t: time.Unix(1278000000, 0)}
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dir: dir, MWSPKGKey: key, Sync: wal.SyncNever, Now: clock.Now}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := registerTestDevice(t, s, clock, "meter-1")
	_, rsaKey := testEnv(t)
	if err := s.RegisterClient("rc", []byte("pw"), &rsaKey.PublicKey); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Grant("rc", "A1"); err != nil {
		t.Fatal(err)
	}
	req, _ := d.PrepareDeposit("A1", []byte("m"))
	if _, err := s.Deposit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.MessageCount() != 1 {
		t.Fatalf("messages lost: %d", s2.MessageCount())
	}
	if len(s2.PolicyTable()) != 1 {
		t.Fatal("policy lost")
	}
	clock.Advance(time.Second)
	// Device key survived: a fresh deposit authenticates.
	req2, _ := d.PrepareDeposit("A1", []byte("m2"))
	if _, err := s2.Deposit(context.Background(), req2); err != nil {
		t.Fatalf("post-restart deposit: %v", err)
	}
}
