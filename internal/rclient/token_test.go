package rclient

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mwskit/internal/obsv"
	"mwskit/internal/wire"
)

// corruptToken returns a sealed token with its last byte flipped: the
// blob still frames as a token, and its unwrap fails.
func corruptToken(blob []byte) []byte {
	b := bytes.Clone(blob)
	b[len(b)-1] ^= 1
	return b
}

// fakeMWS is a warehouse that answers every Retrieve, search or not, with
// resp, and checks no authenticator.
func fakeMWS(tb testing.TB, resp *wire.RetrieveResponse) *wire.Client {
	tb.Helper()
	return serveFake(tb, wire.Bind(wire.OpRetrieve, func(context.Context, *wire.RetrieveRequest) (*wire.RetrieveResponse, error) {
		return resp, nil
	}))
}

// TestTokenOpensOnFirstPKGCall: a retrieval keeps its PKG token sealed
// until a call needs the PKG. From a warehouse that hands out a corrupt
// token, Retrieve and Search succeed, and a page whose keys the client's
// cache holds decrypts. The first call that would send the PKG a frame —
// a key fetch with an identity the cache lacks, or a trapdoor fetch —
// fails with the rclient: token: error before it is sent, and a second
// call on the same retrieval fails the same way.
func TestTokenOpensOnFirstPKGCall(t *testing.T) {
	c, warm, keys, payloads := buildEpochRetrieval(t, 12, 4)
	_, sealed := pageKeys(t, c, warm, keys)
	pkg := newFakePKG(t, sealed)
	if _, err := drain(c, pkg, warm); err != nil {
		t.Fatal(err)
	}
	pkg.take()
	corrupt := corruptToken(warm.tokenBlob)

	cached, err := c.Retrieve(fakeMWS(t, &wire.RetrieveResponse{TokenBlob: corrupt, Items: warm.Items}), 0, 0)
	if err != nil {
		t.Fatalf("Retrieve with a corrupt token: %v", err)
	}
	msgs, err := drain(c, pkg, cached)
	if err != nil || len(msgs) != len(payloads) {
		t.Fatalf("a page of cached keys under a corrupt token: %d messages, %v", len(msgs), err)
	}
	for i, m := range msgs {
		if !bytes.Equal(m.Payload, payloads[i]) {
			t.Fatalf("message %d decrypted to %q", i, m.Payload)
		}
	}

	params, master, _ := env(t)
	cold, _, _ := sealPage(t, params, master, 2, 2)
	mws := fakeMWS(t, &wire.RetrieveResponse{TokenBlob: corrupt, Items: cold.Items})
	r, err := c.Retrieve(mws, 0, 0)
	if err != nil {
		t.Fatalf("Retrieve with a corrupt token: %v", err)
	}
	hits, err := c.Search(mws, []byte("trapdoor"), 0, 0)
	if err != nil {
		t.Fatalf("Search with a corrupt token: %v", err)
	}
	for what, call := range map[string]func() error{
		"FetchKeys": func() error {
			_, _, err := c.FetchKeys(pkg.conn, r)
			return err
		},
		"FetchTrapdoor": func() error {
			_, err := c.FetchTrapdoor(pkg.conn, hits, "kw")
			return err
		},
	} {
		for range 2 {
			if err := call(); err == nil || !strings.HasPrefix(err.Error(), "rclient: token: ") {
				t.Fatalf("%s under a corrupt token: %v, want the rclient: token: error", what, err)
			}
		}
	}
	if requests, _ := pkg.take(); requests != 0 {
		t.Fatalf("the PKG got %d requests under a corrupt token", requests)
	}
}

// TestTokenUnwrapsOnce: a FetchKeys and a FetchTrapdoor that first need
// one retrieval's token at the same moment unwrap it once between them —
// one token.open span across their two traces — and both are served by
// the PKG with its credentials.
func TestTokenUnwrapsOnce(t *testing.T) {
	h := newNetHarness(t)
	if _, err := h.dev.Deposit(h.mwsConn, "A1", []byte("reading")); err != nil {
		t.Fatal(err)
	}
	for round := range 3 {
		r, err := h.rc.Retrieve(h.mwsConn, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		tracer := obsv.NewTracer("rc", 64, 0, nil)
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, call := range []func(context.Context) error{
			func(ctx context.Context) error {
				_, items, err := h.rc.FetchKeysContext(ctx, h.pkgConn, r)
				if err == nil && len(items) == 0 {
					t.Error("FetchKeys sent the PKG no frame")
				}
				return err
			},
			func(ctx context.Context) error {
				// A keyword per round: the client's cache holds the last one.
				_, err := h.rc.FetchTrapdoorContext(ctx, h.pkgConn, r, fmt.Sprintf("kw-%d", round))
				return err
			},
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, root := tracer.StartRoot(context.Background(), "op")
				defer root.End()
				<-start
				errs[i] = call(ctx)
			}()
		}
		close(start)
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("round %d: FetchKeys: %v; FetchTrapdoor: %v", round, errs[0], errs[1])
		}
		opens := 0
		for _, rec := range tracer.Snapshot(0, 0) {
			if rec.Name == "token.open" {
				opens++
			}
		}
		if opens != 1 {
			t.Fatalf("round %d: %d token.open spans, want 1", round, opens)
		}
	}
}
