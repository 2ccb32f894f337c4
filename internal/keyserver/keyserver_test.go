package keyserver

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/obsv"
	"mwskit/internal/pairing"
	"mwskit/internal/storage"
	"mwskit/internal/ticket"
	"mwskit/internal/wal"
	"mwskit/internal/wire"
)

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

func newTestPKG(t *testing.T) (*Service, []byte, *fakeClock) {
	t.Helper()
	clock := &fakeClock{t: time.Unix(1278000000, 0)}
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Dir:       t.TempDir(),
		Preset:    "test",
		MWSPKGKey: key,
		Sync:      wal.SyncNever,
		Now:       clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, key, clock
}

// mintTicket plays the MWS Token Generator role for tests.
func mintTicket(t *testing.T, mwsPkgKey []byte, rc string, bindings []attr.Binding, issued time.Time) (ticketBlob, sessionKey []byte) {
	t.Helper()
	sk, err := ticket.NewSessionKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tk := &ticket.Ticket{RC: rc, Bindings: bindings, SessionKey: sk, IssuedAt: issued.Unix()}
	blob, err := tk.Seal(mwsPkgKey)
	if err != nil {
		t.Fatal(err)
	}
	return blob, sk
}

func authBlob(t *testing.T, sessionKey []byte, rc string, ts time.Time) []byte {
	t.Helper()
	blob, err := ticket.SealAuthenticator(sessionKey, &ticket.Authenticator{RC: rc, Timestamp: ts})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func wireCode(t *testing.T, err error) uint32 {
	t.Helper()
	var em *wire.ErrorMsg
	if !errors.As(err, &em) {
		t.Fatalf("err = %v, want *wire.ErrorMsg", err)
	}
	return em.Code
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Preset: "test", MWSPKGKey: make([]byte, 32)}); err == nil {
		t.Error("missing Dir accepted")
	}
	if _, err := New(Config{Dir: t.TempDir(), Preset: "no-such", MWSPKGKey: make([]byte, 32)}); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := New(Config{Dir: t.TempDir(), Preset: "test", MWSPKGKey: []byte("short")}); err == nil {
		t.Error("short shared key accepted")
	}
}

func TestPublicParams(t *testing.T) {
	s, _, _ := newTestPKG(t)
	pr, _ := s.PublicParams(context.Background(), nil)
	if pr.Preset != "test" || len(pr.PPub) == 0 {
		t.Fatalf("params response: %+v", pr)
	}
}

func TestExtractHappyPath(t *testing.T) {
	s, key, clock := newTestPKG(t)
	bindings := []attr.Binding{
		{Identity: "rc", Attribute: "ELECTRIC-X", AID: 1},
		{Identity: "rc", Attribute: "WATER-X", AID: 2},
	}
	tb, sk := mintTicket(t, key, "rc", bindings, clock.Now())
	nonce, _ := attr.NewNonce(rand.Reader)

	resp, err := s.Extract(context.Background(), &wire.ExtractRequest{
		RC:            "rc",
		TicketBlob:    tb,
		Authenticator: authBlob(t, sk, "rc", clock.Now()),
		Items:         []wire.ExtractItem{{AID: 1, Nonce: nonce[:]}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.SealedKeys) != 1 {
		t.Fatalf("got %d keys", len(resp.SealedKeys))
	}
	// The sealed key opens under the session key and matches a direct
	// extraction for the same identity.
	raw, err := ticket.OpenExtractedKey(sk, resp.SealedKeys[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := bfibe.UnmarshalPrivateKey(s.Params(), raw)
	if err != nil {
		t.Fatal(err)
	}
	identity := attr.Identity("ELECTRIC-X", nonce)
	if !bytes.Equal(got.ID, identity) {
		t.Fatal("extracted key bound to wrong identity")
	}
	q, err := s.Params().HashIdentity(identity)
	if err != nil {
		t.Fatal(err)
	}
	_ = q
	// Verify against the pairing relation: decapsulating a fresh
	// encapsulation for this identity must round-trip.
	enc, wantKey, err := s.Params().Encapsulate(identity, 32, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, err := s.Params().Decapsulate(got, enc, 32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantKey, gotKey) {
		t.Fatal("extracted key cannot decapsulate")
	}
}

func TestExtractRejectsUngrantedAID(t *testing.T) {
	s, key, clock := newTestPKG(t)
	tb, sk := mintTicket(t, key, "rc", []attr.Binding{{Identity: "rc", Attribute: "A1", AID: 1}}, clock.Now())
	nonce, _ := attr.NewNonce(rand.Reader)
	_, err := s.Extract(context.Background(), &wire.ExtractRequest{
		RC:            "rc",
		TicketBlob:    tb,
		Authenticator: authBlob(t, sk, "rc", clock.Now()),
		Items:         []wire.ExtractItem{{AID: 99, Nonce: nonce[:]}},
	})
	if code := wireCode(t, err); code != wire.CodeAuth {
		t.Fatalf("code = %d, want CodeAuth", code)
	}
}

// grantedItems returns n extract items under AID 1, each with its own
// nonce.
func grantedItems(t *testing.T, n int) []wire.ExtractItem {
	t.Helper()
	items := make([]wire.ExtractItem, n)
	for i := range items {
		nonce, err := attr.NewNonce(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		items[i] = wire.ExtractItem{AID: 1, Nonce: nonce[:]}
	}
	return items
}

// TestExtractAuthorizesBeforeExtracting: an ungranted AID at the end of a
// request is refused before the PKG spends a secret scalar multiplication
// on the granted items ahead of it.
func TestExtractAuthorizesBeforeExtracting(t *testing.T) {
	s, key, clock := newTestPKG(t)
	tb, sk := mintTicket(t, key, "rc", []attr.Binding{{Identity: "rc", Attribute: "A1", AID: 1}}, clock.Now())
	items := append(grantedItems(t, 7), wire.ExtractItem{AID: 99, Nonce: make([]byte, attr.NonceLen)})
	before := obsv.CounterMap()["scalar_mult_secret"]
	_, err := s.Extract(context.Background(), &wire.ExtractRequest{
		RC: "rc", TicketBlob: tb, Authenticator: authBlob(t, sk, "rc", clock.Now()), Items: items,
	})
	var em *wire.ErrorMsg
	if !errors.As(err, &em) || em.Code != wire.CodeAuth || em.Message != "AID 99 not granted" {
		t.Fatalf("err = %v, want CodeAuth \"AID 99 not granted\"", err)
	}
	if d := obsv.CounterMap()["scalar_mult_secret"] - before; d != 0 {
		t.Fatalf("%d secret scalar multiplications before the refusal, want 0", d)
	}
}

// expiringCtx reports its deadline as passed once expired() holds: a
// request whose budget runs out at a chosen point of the batch.
type expiringCtx struct {
	context.Context
	expired func() bool
}

func (c expiringCtx) Err() error {
	if c.expired() {
		return context.DeadlineExceeded
	}
	return nil
}

// TestExtractDeadlineMidBatch: a deadline that passes after the first
// extraction ends the request with CodeTimeout and leaves the rest of the
// batch unextracted.
func TestExtractDeadlineMidBatch(t *testing.T) {
	s, key, clock := newTestPKG(t)
	tb, sk := mintTicket(t, key, "rc", []attr.Binding{{Identity: "rc", Attribute: "A1", AID: 1}}, clock.Now())
	const n = 32
	before := obsv.CounterMap()["scalar_mult_secret"]
	extracted := func() uint64 { return obsv.CounterMap()["scalar_mult_secret"] - before }
	ctx := expiringCtx{Context: context.Background(), expired: func() bool { return extracted() > 0 }}
	resp, err := s.Extract(ctx, &wire.ExtractRequest{
		RC: "rc", TicketBlob: tb, Authenticator: authBlob(t, sk, "rc", clock.Now()), Items: grantedItems(t, n),
	})
	if resp != nil || wireCode(t, err) != wire.CodeTimeout {
		t.Fatalf("resp %v, err %v: want CodeTimeout", resp, err)
	}
	if d := extracted(); d == 0 || d >= n {
		t.Fatalf("%d of %d items extracted, want the batch cut off after the first", d, n)
	}
}

func TestExtractRejectsForgedTicket(t *testing.T) {
	s, _, clock := newTestPKG(t)
	otherKey := make([]byte, 32)
	rand.Read(otherKey)
	tb, sk := mintTicket(t, otherKey, "rc", nil, clock.Now())
	nonce, _ := attr.NewNonce(rand.Reader)
	_, err := s.Extract(context.Background(), &wire.ExtractRequest{
		RC:            "rc",
		TicketBlob:    tb,
		Authenticator: authBlob(t, sk, "rc", clock.Now()),
		Items:         []wire.ExtractItem{{AID: 1, Nonce: nonce[:]}},
	})
	if code := wireCode(t, err); code != wire.CodeAuth {
		t.Fatalf("code = %d", code)
	}
}

func TestExtractRejectsRCMismatch(t *testing.T) {
	s, key, clock := newTestPKG(t)
	tb, sk := mintTicket(t, key, "rc-real", []attr.Binding{{Identity: "rc-real", Attribute: "A1", AID: 1}}, clock.Now())
	nonce, _ := attr.NewNonce(rand.Reader)
	// Request under a different RC name than the ticket was minted for.
	_, err := s.Extract(context.Background(), &wire.ExtractRequest{
		RC:            "rc-thief",
		TicketBlob:    tb,
		Authenticator: authBlob(t, sk, "rc-thief", clock.Now()),
		Items:         []wire.ExtractItem{{AID: 1, Nonce: nonce[:]}},
	})
	if code := wireCode(t, err); code != wire.CodeAuth {
		t.Fatalf("code = %d", code)
	}
}

func TestExtractRejectsWrongSessionKeyAuthenticator(t *testing.T) {
	s, key, clock := newTestPKG(t)
	tb, _ := mintTicket(t, key, "rc", []attr.Binding{{Identity: "rc", Attribute: "A1", AID: 1}}, clock.Now())
	wrongSK, _ := ticket.NewSessionKey(rand.Reader)
	nonce, _ := attr.NewNonce(rand.Reader)
	_, err := s.Extract(context.Background(), &wire.ExtractRequest{
		RC:            "rc",
		TicketBlob:    tb,
		Authenticator: authBlob(t, wrongSK, "rc", clock.Now()),
		Items:         []wire.ExtractItem{{AID: 1, Nonce: nonce[:]}},
	})
	if code := wireCode(t, err); code != wire.CodeAuth {
		t.Fatalf("code = %d", code)
	}
}

func TestExtractRejectsReplayedAuthenticator(t *testing.T) {
	s, key, clock := newTestPKG(t)
	tb, sk := mintTicket(t, key, "rc", []attr.Binding{{Identity: "rc", Attribute: "A1", AID: 1}}, clock.Now())
	nonce, _ := attr.NewNonce(rand.Reader)
	ab := authBlob(t, sk, "rc", clock.Now())
	req := &wire.ExtractRequest{
		RC: "rc", TicketBlob: tb, Authenticator: ab,
		Items: []wire.ExtractItem{{AID: 1, Nonce: nonce[:]}},
	}
	if _, err := s.Extract(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	_, err := s.Extract(context.Background(), req)
	if code := wireCode(t, err); code != wire.CodeReplay {
		t.Fatalf("replay code = %d", code)
	}
}

func TestExtractRejectsStaleAuthenticator(t *testing.T) {
	s, key, clock := newTestPKG(t)
	tb, sk := mintTicket(t, key, "rc", []attr.Binding{{Identity: "rc", Attribute: "A1", AID: 1}}, clock.Now())
	nonce, _ := attr.NewNonce(rand.Reader)
	ab := authBlob(t, sk, "rc", clock.Now())
	clock.Advance(time.Hour)
	_, err := s.Extract(context.Background(), &wire.ExtractRequest{
		RC: "rc", TicketBlob: tb, Authenticator: ab,
		Items: []wire.ExtractItem{{AID: 1, Nonce: nonce[:]}},
	})
	if code := wireCode(t, err); code != wire.CodeAuth {
		t.Fatalf("stale code = %d", code)
	}
}

func TestExtractRejectsBadNonce(t *testing.T) {
	s, key, clock := newTestPKG(t)
	tb, sk := mintTicket(t, key, "rc", []attr.Binding{{Identity: "rc", Attribute: "A1", AID: 1}}, clock.Now())
	_, err := s.Extract(context.Background(), &wire.ExtractRequest{
		RC: "rc", TicketBlob: tb,
		Authenticator: authBlob(t, sk, "rc", clock.Now()),
		Items:         []wire.ExtractItem{{AID: 1, Nonce: []byte("short")}},
	})
	if code := wireCode(t, err); code != wire.CodeBadRequest {
		t.Fatalf("code = %d", code)
	}
}

func TestMasterKeyPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	key := make([]byte, 32)
	rand.Read(key)
	cfg := Config{Dir: dir, Preset: "test", MWSPKGKey: key, Sync: wal.SyncNever}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ppub1 := bfibe.MarshalParams(s1.Params())
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !bytes.Equal(ppub1, bfibe.MarshalParams(s2.Params())) {
		t.Fatal("master key changed across restart — all old ciphertexts would be lost")
	}
}

// TestOpensEarlierMasterKeyEncodings seeds the PKG's store with a master
// key as earlier versions wrote it — big.Int.Bytes, minimal length, here
// the 1-in-256 key whose top byte is zero and so one byte short — and as
// this version writes it, fixed width: both open to the same P_pub = sP.
// A value outside [1, q−1] is refused as corrupt.
func TestOpensEarlierMasterKeyEncodings(t *testing.T) {
	sys := pairing.ParamsTest.MustSystem()
	n := sys.Curve.ScalarLen()
	s := new(big.Int).Rsh(sys.Curve.Q, 9) // top byte zero
	want := sys.Curve.ScalarMult(sys.G1(), s)
	open := func(raw []byte) (*Service, error) {
		dir := t.TempDir()
		kv, err := storage.OpenKV(filepath.Join(dir, "pkg"), wal.SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		if err := kv.Put(masterKeyKey, raw); err != nil {
			t.Fatal(err)
		}
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
		return New(Config{Dir: dir, Preset: "test", MWSPKGKey: make([]byte, 32), Sync: wal.SyncNever})
	}
	if len(s.Bytes()) != n-1 {
		t.Fatalf("test scalar encodes in %d bytes, want %d", len(s.Bytes()), n-1)
	}
	for name, raw := range map[string][]byte{"minimal": s.Bytes(), "fixed": s.FillBytes(make([]byte, n))} {
		svc, err := open(raw)
		if err != nil {
			t.Fatalf("%s encoding: %v", name, err)
		}
		if !svc.Params().PPub.Equal(want) {
			t.Errorf("%s encoding: P_pub ≠ sP", name)
		}
		svc.Close()
	}
	for name, raw := range map[string][]byte{"q": sys.Curve.Q.Bytes(), "zero": {0}, "over-long": make([]byte, n+1)} {
		if svc, err := open(raw); err == nil || !strings.Contains(err.Error(), "corrupt master key") {
			t.Errorf("%s: err = %v, want corrupt master key", name, err)
			if svc != nil {
				svc.Close()
			}
		}
	}
}

func TestHandleFrameDispatch(t *testing.T) {
	s, _, _ := newTestPKG(t)
	if resp := s.Handle(context.Background(), wire.Frame{Type: wire.TPing}); resp.Type != wire.TPong {
		t.Fatal("ping broken")
	}
	if resp := s.Handle(context.Background(), wire.Frame{Type: wire.TParams}); resp.Type != wire.TParamsResp {
		t.Fatal("params broken")
	}
	if resp := s.Handle(context.Background(), wire.Frame{Type: wire.TExtract, Payload: []byte{1}}); resp.Type != wire.TError {
		t.Fatal("garbage extract not rejected")
	}
	if resp := s.Handle(context.Background(), wire.Frame{Type: wire.TDeposit}); resp.Type != wire.TError {
		t.Fatal("deposit should be unsupported on the PKG")
	}
}
