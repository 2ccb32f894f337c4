package device

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"testing"

	"mwskit/internal/bfibe"
	"mwskit/internal/obsv"
	"mwskit/internal/pairing"
	"mwskit/internal/pkgparams"
)

// isolatedParams builds a Params instance not shared with other tests so
// g_ID cache lengths can be asserted exactly.
func isolatedParams(t *testing.T) *bfibe.Params {
	t.Helper()
	sys := pairing.ParamsTest.MustSystem()
	p, _, err := bfibe.Setup(sys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNonceEpochDefaultIsFreshPerMessage(t *testing.T) {
	params, _ := env(t)
	d, err := New("meter-1", testKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.PrepareDeposit("ELECTRIC-X", []byte("r1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.PrepareDeposit("ELECTRIC-X", []byte("r2"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Nonce, b.Nonce) {
		t.Fatal("default device reused a nonce across messages")
	}
}

func TestNonceEpochReuseAndRotation(t *testing.T) {
	params := isolatedParams(t)
	d, err := New("meter-1", testKey(), params, WithNonceEpoch(3))
	if err != nil {
		t.Fatal(err)
	}
	var nonces [][]byte
	for i := 0; i < 3; i++ {
		req, err := d.PrepareDeposit("ELECTRIC-X", []byte("r"))
		if err != nil {
			t.Fatal(err)
		}
		nonces = append(nonces, req.Nonce)
	}
	if !bytes.Equal(nonces[0], nonces[1]) || !bytes.Equal(nonces[1], nonces[2]) {
		t.Fatal("epoch-3 device did not reuse its nonce within the epoch")
	}
	// One attribute, one nonce → exactly one cached g_ID.
	if n := params.GIDCacheLen(); n != 1 {
		t.Fatalf("cache len = %d after an epoch of same-identity deposits, want 1", n)
	}

	// Fourth deposit crosses the epoch boundary: fresh nonce, and the
	// retired identity's cache entry is invalidated before the new one
	// lands.
	req, err := d.PrepareDeposit("ELECTRIC-X", []byte("r"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(req.Nonce, nonces[0]) {
		t.Fatal("nonce not rotated at epoch boundary")
	}
	if n := params.GIDCacheLen(); n != 1 {
		t.Fatalf("cache len = %d after rotation, want 1 (old entry invalidated)", n)
	}

	// Forced rotation also changes the nonce immediately.
	if err := d.RotateNonce(); err != nil {
		t.Fatal(err)
	}
	req2, err := d.PrepareDeposit("ELECTRIC-X", []byte("r"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(req2.Nonce, req.Nonce) {
		t.Fatal("RotateNonce did not change the nonce")
	}
}

func TestPrepareDepositsOrderAndContent(t *testing.T) {
	params, _ := env(t)
	d, err := New("meter-1", testKey(), params, WithNonceEpoch(100))
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, 12)
	for i := range items {
		items[i] = BatchItem{
			Attribute: "ELECTRIC-X",
			Payload:   []byte(fmt.Sprintf("reading=%d", i)),
		}
	}
	reqs, err := d.PrepareDeposits(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != len(items) {
		t.Fatalf("got %d requests, want %d", len(reqs), len(items))
	}
	seenU := map[string]bool{}
	for i, req := range reqs {
		if req == nil {
			t.Fatalf("request %d missing", i)
		}
		if req.Attribute != string(items[i].Attribute) {
			t.Fatalf("request %d out of order", i)
		}
		// Every message draws its own r even when identities repeat.
		if seenU[string(req.U)] {
			t.Fatal("two batch messages share a transport point U")
		}
		seenU[string(req.U)] = true
	}

	if out, err := d.PrepareDeposits(context.Background(), nil); err != nil || out != nil {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}

// TestPrepareDepositsKeepsItsTrace: a batch prepared under a root span
// records every item's three stage spans in that trace, as children of
// the root.
func TestPrepareDepositsKeepsItsTrace(t *testing.T) {
	params, _ := env(t)
	d, err := New("meter-1", testKey(), params, WithNonceEpoch(100))
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, 5)
	for i := range items {
		items[i] = BatchItem{Attribute: "ELECTRIC-X", Payload: []byte("reading")}
	}
	tracer := obsv.NewTracer("device", 64, 0, nil)
	ctx, root := tracer.StartRoot(context.Background(), "batch")
	if _, err := d.PrepareDeposits(ctx, items); err != nil {
		t.Fatal(err)
	}
	root.End()
	stages := map[string]int{}
	for _, rec := range tracer.Snapshot(64, root.Context().TraceID) {
		if rec.ParentID == root.Context().SpanID {
			stages[rec.Name]++
		}
	}
	for _, name := range []string{"ibe.encapsulate", "symenc.seal", "auth"} {
		if stages[name] != len(items) {
			t.Errorf("%d %s spans under the batch's root, want %d (all: %v)", stages[name], name, len(items), stages)
		}
	}
}

func TestPrepareDepositsCanceledContext(t *testing.T) {
	params, _ := env(t)
	d, err := New("meter-1", testKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := []BatchItem{{Attribute: "A", Payload: []byte("x")}}
	if _, err := d.PrepareDeposits(ctx, items); err == nil {
		t.Fatal("canceled context accepted")
	}
}

func TestPrepareDepositsFirstErrorWins(t *testing.T) {
	params, _ := env(t)
	d, err := New("meter-1", testKey(), params)
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Attribute: "OK-1", Payload: []byte("x")},
		{Attribute: "", Payload: []byte("bad attribute")},
		{Attribute: "OK-2", Payload: []byte("y")},
	}
	if _, err := d.PrepareDeposits(context.Background(), items); err == nil {
		t.Fatal("invalid item did not fail the batch")
	}
}

func TestDepositBatchOverNetwork(t *testing.T) {
	h := newNetHarness(t)
	params, err := pkgparams.Fetch(context.Background(), h.pkgConn)
	if err != nil {
		t.Fatal(err)
	}
	key, err := h.mwsSvc.RegisterDevice("net-meter")
	if err != nil {
		t.Fatal(err)
	}
	d, err := New("net-meter", key, params, WithNonceEpoch(4))
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, 6)
	for i := range items {
		items[i] = BatchItem{Attribute: "A1", Payload: []byte(fmt.Sprintf("m%d", i))}
	}
	results, err := d.DepositBatch(context.Background(), h.mwsConn, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(items) {
		t.Fatalf("got %d results, want %d", len(results), len(items))
	}
	for i, r := range results {
		if r.Index != i || r.Seq != uint64(i) {
			t.Fatalf("result %d = %+v, want in-order seq", i, r)
		}
	}
	if got := h.mwsSvc.MessageCount(); got != len(items) {
		t.Fatalf("warehouse holds %d messages, want %d", got, len(items))
	}
}
