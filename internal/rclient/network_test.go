package rclient

import (
	"bytes"
	"crypto/rand"
	"testing"
	"time"

	"mwskit/internal/device"
	"mwskit/internal/keyserver"
	"mwskit/internal/mws"
	"mwskit/internal/wal"
	"mwskit/internal/wire"
)

// netHarness stands up real MWS + PKG servers plus a registered device
// and an enrolled client for RC-side network tests.
type netHarness struct {
	mwsSvc  *mws.Service
	pkgSvc  *keyserver.Service
	mwsConn *wire.Client
	pkgConn *wire.Client
	dev     *device.Device
	rc      *Client
}

func newNetHarness(t *testing.T) *netHarness {
	t.Helper()
	shared := make([]byte, 32)
	if _, err := rand.Read(shared); err != nil {
		t.Fatal(err)
	}
	pkgSvc, err := keyserver.New(keyserver.Config{
		Dir: t.TempDir(), Preset: "test", MWSPKGKey: shared, Sync: wal.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pkgSvc.Close() })
	mwsSvc, err := mws.New(mws.Config{
		Dir: t.TempDir(), MWSPKGKey: shared, Sync: wal.SyncNever, IBEParams: pkgSvc.Params(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mwsSvc.Close() })

	mwsSrv, mwsAddr, err := mwsSvc.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mwsSrv.Close() })
	pkgSrv, pkgAddr, err := pkgSvc.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pkgSrv.Close() })

	mwsConn, err := wire.Dial(mwsAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mwsConn.Close() })
	pkgConn, err := wire.Dial(pkgAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pkgConn.Close() })

	// Device.
	devKey, err := mwsSvc.RegisterDevice("meter")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.New("meter", devKey, pkgSvc.Params())
	if err != nil {
		t.Fatal(err)
	}

	// Client.
	_, _, rsaKey := env(t) // shared fixture from rclient_test.go
	if err := mwsSvc.RegisterClient("rc", []byte("pw"), &rsaKey.PublicKey); err != nil {
		t.Fatal(err)
	}
	if _, err := mwsSvc.Grant("rc", "A1"); err != nil {
		t.Fatal(err)
	}
	rc, err := New("rc", []byte("pw"), rsaKey, pkgSvc.Params())
	if err != nil {
		t.Fatal(err)
	}
	return &netHarness{mwsSvc: mwsSvc, pkgSvc: pkgSvc, mwsConn: mwsConn, pkgConn: pkgConn, dev: dev, rc: rc}
}

func TestRetrieveAndDecryptOverNetwork(t *testing.T) {
	h := newNetHarness(t)
	if _, err := h.dev.Deposit(h.mwsConn, "A1", []byte("msg one")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.dev.Deposit(h.mwsConn, "A1", []byte("msg two")); err != nil {
		t.Fatal(err)
	}
	msgs, err := h.rc.RetrieveAndDecrypt(h.mwsConn, h.pkgConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || !bytes.Equal(msgs[0].Payload, []byte("msg one")) || !bytes.Equal(msgs[1].Payload, []byte("msg two")) {
		t.Fatalf("round trip mismatch: %v", msgs)
	}
}

func TestRetrieveEmptyWarehouse(t *testing.T) {
	h := newNetHarness(t)
	msgs, err := h.rc.RetrieveAndDecrypt(h.mwsConn, h.pkgConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if msgs != nil {
		t.Fatalf("expected nil for empty warehouse, got %v", msgs)
	}
}

func TestRetrieveWrongPassword(t *testing.T) {
	h := newNetHarness(t)
	_, _, rsaKey := env(t)
	bad, err := New("rc", []byte("wrong"), rsaKey, h.pkgSvc.Params())
	if err != nil {
		t.Fatal(err)
	}
	_, err = bad.Retrieve(h.mwsConn, 0, 0)
	if em, ok := err.(*wire.ErrorMsg); !ok || em.Code != wire.CodeAuth {
		t.Fatalf("err = %v, want auth ErrorMsg", err)
	}
}

func TestFetchKeysDeduplicates(t *testing.T) {
	h := newNetHarness(t)
	for i := 0; i < 3; i++ {
		if _, err := h.dev.Deposit(h.mwsConn, "A1", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ret, err := h.rc.Retrieve(h.mwsConn, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys, items, err := h.rc.FetchKeys(h.pkgConn, ret)
	if err != nil {
		t.Fatal(err)
	}
	// Three distinct nonces → three distinct keys; dedup keeps them all.
	if len(keys) != 3 || len(items) != 3 {
		t.Fatalf("keys=%d items=%d", len(keys), len(items))
	}
	// Empty retrieval short-circuits without a PKG round trip.
	empty := &Retrieval{tokenBlob: ret.tokenBlob}
	keys2, items2, err := h.rc.FetchKeys(h.pkgConn, empty)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys2) != 0 || items2 != nil {
		t.Fatal("empty retrieval produced extract traffic")
	}
}

func TestSearchOverNetwork(t *testing.T) {
	h := newNetHarness(t)
	if _, err := h.dev.DepositTagged(h.mwsConn, "A1", []byte("tagged"), []string{"special"}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.dev.Deposit(h.mwsConn, "A1", []byte("plain")); err != nil {
		t.Fatal(err)
	}
	boot, err := h.rc.Retrieve(h.mwsConn, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	td, err := h.rc.FetchTrapdoor(h.pkgConn, boot, "special")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	hits, err := h.rc.Search(h.mwsConn, td, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits.Items) != 1 {
		t.Fatalf("search hits = %d", len(hits.Items))
	}
	keys, _, err := h.rc.FetchKeys(h.pkgConn, hits)
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range keys {
		m, err := h.rc.Decrypt(&hits.Items[0], sk)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Payload, []byte("tagged")) {
			t.Fatal("wrong message matched")
		}
	}
}

func TestRetrieveCursorOverNetwork(t *testing.T) {
	h := newNetHarness(t)
	var last uint64
	for i := 0; i < 5; i++ {
		seq, err := h.dev.Deposit(h.mwsConn, "A1", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	msgs, err := h.rc.RetrieveAndDecrypt(h.mwsConn, h.pkgConn, last, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Seq != last {
		t.Fatalf("cursor fetch: %v", msgs)
	}
}
