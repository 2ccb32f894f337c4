package device

import (
	"context"
	"crypto/rand"
	"testing"

	"mwskit/internal/keyserver"
	"mwskit/internal/mws"
	"mwskit/internal/pkgparams"
	"mwskit/internal/wal"
	"mwskit/internal/wire"
)

// netHarness stands up real MWS + PKG wire servers for device-side
// network tests.
type netHarness struct {
	mwsSvc  *mws.Service
	pkgSvc  *keyserver.Service
	mwsConn *wire.Client
	pkgConn *wire.Client
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
	return &netHarness{mwsSvc: mwsSvc, pkgSvc: pkgSvc, mwsConn: mwsConn, pkgConn: pkgConn}
}

func TestFetchParamsAndDepositOverNetwork(t *testing.T) {
	h := newNetHarness(t)
	// Bootstrap exactly as a field device would: parameters from the PKG.
	params, err := pkgparams.Fetch(context.Background(), h.pkgConn)
	if err != nil {
		t.Fatal(err)
	}
	if !params.PPub.Equal(h.pkgSvc.Params().PPub) {
		t.Fatal("fetched parameters differ from the PKG's")
	}
	key, err := h.mwsSvc.RegisterDevice("net-meter")
	if err != nil {
		t.Fatal(err)
	}
	d, err := New("net-meter", key, params)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := d.Deposit(h.mwsConn, "A1", []byte("over tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 0 || h.mwsSvc.MessageCount() != 1 {
		t.Fatalf("deposit seq=%d count=%d", seq, h.mwsSvc.MessageCount())
	}
}

func TestDepositTaggedOverNetwork(t *testing.T) {
	h := newNetHarness(t)
	params, err := pkgparams.Fetch(context.Background(), h.pkgConn)
	if err != nil {
		t.Fatal(err)
	}
	key, err := h.mwsSvc.RegisterDevice("net-meter")
	if err != nil {
		t.Fatal(err)
	}
	d, err := New("net-meter", key, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DepositTagged(h.mwsConn, "A1", []byte("m"), []string{"kw1", "kw2"}); err != nil {
		t.Fatal(err)
	}
	// Over-limit keyword count rejected client-side.
	many := make([]string, wire.MaxTags+1)
	for i := range many {
		many[i] = "kw"
	}
	if _, err := d.DepositTagged(h.mwsConn, "A1", []byte("m"), many); err == nil {
		t.Fatal("over-limit keywords accepted")
	}
}

func TestDepositRejectedByServerSurfacesError(t *testing.T) {
	h := newNetHarness(t)
	params, err := pkgparams.Fetch(context.Background(), h.pkgConn)
	if err != nil {
		t.Fatal(err)
	}
	// Unregistered device: the server rejects with an auth error, which
	// must surface as a *wire.ErrorMsg.
	d, err := New("ghost", make([]byte, 32), params)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Deposit(h.mwsConn, "A1", []byte("m"))
	if em, ok := err.(*wire.ErrorMsg); !ok || em.Code != wire.CodeAuth {
		t.Fatalf("err = %v, want auth ErrorMsg", err)
	}
}
