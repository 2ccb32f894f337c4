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
	"mwskit/internal/wire"
)

// isolatedParams builds a Params instance not shared with other tests so
// its g_ID cache traffic can be asserted exactly.
func isolatedParams(t *testing.T) *bfibe.Params {
	t.Helper()
	sys := pairing.ParamsTest.MustSystem()
	p, _, err := bfibe.Setup(sys, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// gidTraffic runs f and returns the g_ID cache's hits, misses and
// evictions during it, from the process-wide counters.
func gidTraffic(f func()) [3]uint64 {
	names := [3]string{"gid_cache_hits", "gid_cache_misses", "gid_cache_evictions"}
	before := obsv.CounterMap()
	f()
	after := obsv.CounterMap()
	var d [3]uint64
	for i, n := range names {
		d[i] = after[n] - before[n]
	}
	return d
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
	// Bound 1: the rotation below puts its new identity in without an
	// eviction only if the retired one was invalidated first.
	params.SetGIDCacheCap(1)
	d, err := New("meter-1", testKey(), params, WithNonceEpoch(3))
	if err != nil {
		t.Fatal(err)
	}
	var nonces [][]byte
	// One attribute, one nonce → one g_ID, computed once.
	if got := gidTraffic(func() {
		for i := 0; i < 3; i++ {
			req, err := d.PrepareDeposit("ELECTRIC-X", []byte("r"))
			if err != nil {
				t.Fatal(err)
			}
			nonces = append(nonces, req.Nonce)
		}
	}); got != [3]uint64{2, 1, 0} {
		t.Fatalf("an epoch of same-identity deposits: g_ID hits, misses, evictions = %v, want [2 1 0]", got)
	}
	if !bytes.Equal(nonces[0], nonces[1]) || !bytes.Equal(nonces[1], nonces[2]) {
		t.Fatal("epoch-3 device did not reuse its nonce within the epoch")
	}

	// Fourth deposit crosses the epoch boundary: fresh nonce, and the
	// retired identity's cache entry is invalidated before the new one
	// lands.
	var req *wire.DepositRequest
	if got := gidTraffic(func() {
		if req, err = d.PrepareDeposit("ELECTRIC-X", []byte("r")); err != nil {
			t.Fatal(err)
		}
	}); got != [3]uint64{0, 1, 0} {
		t.Fatalf("the rotating deposit: g_ID hits, misses, evictions = %v, want [0 1 0] (retired identity invalidated)", got)
	}
	if bytes.Equal(req.Nonce, nonces[0]) {
		t.Fatal("nonce not rotated at epoch boundary")
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
	reqs, err := d.PrepareDeposits(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		seq, err := d.send(context.Background(), h.mwsConn, req)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("item %d acknowledged as seq %d, want in-order seqs", i, seq)
		}
	}
	if got := h.mwsSvc.MessageCount(); got != len(items) {
		t.Fatalf("warehouse holds %d messages, want %d", got, len(items))
	}
}
