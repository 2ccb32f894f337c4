package rclient

import (
	"context"
	"crypto/rand"
	"errors"
	"log/slog"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/obsv"
	"mwskit/internal/pairing"
	"mwskit/internal/symenc"
	"mwskit/internal/ticket"
	"mwskit/internal/wire"
)

// sealToken gives r a PKG token sealed to c's RSA key, as the warehouse
// seals one, carrying a fresh session key, which it returns.
func sealToken(tb testing.TB, c *Client, r *Retrieval) []byte {
	tb.Helper()
	session, err := ticket.NewSessionKey(rand.Reader)
	if err != nil {
		tb.Fatal(err)
	}
	tok := &ticket.Token{SessionKey: session, TicketBlob: []byte("ticket")}
	if r.tokenBlob, err = ticket.SealToken(rand.Reader, &c.priv.PublicKey, tok); err != nil {
		tb.Fatal(err)
	}
	return session
}

// pageKeys seals a retrieval's keys as the PKG would answer FetchKeys:
// each identity's key marshalled and sealed under the session key of a
// fresh token, which it sets on r. The identities come back in order of
// first appearance, the order a FetchKeys with nothing cached requests
// them in.
func pageKeys(tb testing.TB, c *Client, r *Retrieval, keys map[keyIndex]*bfibe.PrivateKey) ([]keyIndex, map[keyIndex][]byte) {
	tb.Helper()
	session := sealToken(tb, c, r)
	var err error
	var order []keyIndex
	sealed := make(map[keyIndex][]byte)
	for i := range r.Items {
		k := mustKeyIndex(tb, &r.Items[i])
		if sealed[k] != nil {
			continue
		}
		order = append(order, k)
		if sealed[k], err = ticket.SealExtractedKey(session, bfibe.MarshalPrivateKey(c.params, keys[k])); err != nil {
			tb.Fatal(err)
		}
	}
	return order, sealed
}

// fakePKG is the key server of these tests, doing no arithmetic of its
// own: it answers each Extract with the sealed key it holds for every
// requested identity, in request order, and notes what it was asked. It
// refuses every Trapdoor, counting it as a request.
type fakePKG struct {
	conn   *wire.Client
	sealed map[keyIndex][]byte

	mu       sync.Mutex
	requests int
	asked    []keyIndex
}

func newFakePKG(tb testing.TB, sealed map[keyIndex][]byte) *fakePKG {
	tb.Helper()
	f := &fakePKG{sealed: sealed}
	r := wire.NewRouter()
	wire.Route(r, wire.OpExtract, func(_ context.Context, req *wire.ExtractRequest) (*wire.ExtractResponse, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.requests++
		resp := &wire.ExtractResponse{}
		for _, it := range req.Items {
			k, err := keyIndexOf(&Envelope{AID: it.AID, Nonce: it.Nonce})
			if err != nil {
				return nil, err
			}
			f.asked = append(f.asked, k)
			resp.SealedKeys = append(resp.SealedKeys, f.sealed[k])
		}
		return resp, nil
	})
	wire.Route(r, wire.OpTrapdoor, func(context.Context, *wire.TrapdoorRequest) (*wire.TrapdoorResponse, error) {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.requests++
		return nil, errors.New("fake PKG: no trapdoors")
	})
	f.conn = serveFake(tb, r)
	return f
}

// serveFake serves r on loopback for the test and returns a connection
// to it.
func serveFake(tb testing.TB, r *wire.Router) *wire.Client {
	tb.Helper()
	srv := wire.NewServer(r, slog.New(slog.DiscardHandler))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	conn, err := wire.Dial(addr.String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	return conn
}

// take returns the extract requests and the identities asked for since
// the last take.
func (f *fakePKG) take() (requests int, asked []keyIndex) {
	f.mu.Lock()
	defer f.mu.Unlock()
	requests, asked = f.requests, f.asked
	f.requests, f.asked = 0, nil
	return requests, asked
}

// TestFetchKeysFailsAtLowestBadIndex: the keys of a page open across the
// host's cores, and a bad sealed key fails the whole fetch with the error
// of the lowest bad index — what opening them one after the other would
// report — whichever worker met which key first. Index k is tampered in
// its seal and index j > k carries a well-sealed key whose point is
// outside G1 (a private key keeps its order-q check), then the other way
// round.
func TestFetchKeysFailsAtLowestBadIndex(t *testing.T) {
	c, r, keys, _ := buildEpochRetrieval(t, 24, 8)
	order, good := pageKeys(t, c, r, keys)
	tok, err := c.credentials(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 8 {
		t.Fatalf("fixture has %d keys, want 8", len(order))
	}
	got, _, err := c.FetchKeysContext(context.Background(), newFakePKG(t, good).conn, r)
	if err != nil {
		t.Fatal(err)
	}
	for k, sk := range keys {
		if !got[k].D.Equal(sk.D) {
			t.Fatalf("key %+v opened to another point", k)
		}
	}

	tampered := func(i int) []byte {
		b := append([]byte(nil), good[order[i]]...)
		b[len(b)-1] ^= 1
		return b
	}
	curve := c.params.Sys.Curve
	offSubgroup := func() []byte {
		for x := int64(1); ; x++ {
			xe := curve.F.FromInt64(x)
			y, ok := xe.Square().Mul(xe).Add(xe).Sqrt()
			if !ok {
				continue
			}
			pt, err := curve.NewPoint(xe, y)
			if err != nil || curve.ScalarBaseOrderCheck(pt) {
				continue
			}
			s, err := ticket.SealExtractedKey(tok.SessionKey, bfibe.MarshalPrivateKey(c.params, &bfibe.PrivateKey{ID: []byte("x"), D: pt}))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	for _, tc := range []struct {
		first     string
		at, later int
		bad       func(int) []byte
		other     func(int) []byte
		isFirst   func(error) bool
	}{
		{"tampered seal", 2, 6, tampered, func(int) []byte { return offSubgroup() },
			func(err error) bool { return errors.Is(err, symenc.ErrAuth) }},
		{"off-subgroup key", 3, 5, func(int) []byte { return offSubgroup() }, tampered,
			func(err error) bool { return strings.Contains(err.Error(), "order-q subgroup") }},
	} {
		sealed := maps.Clone(good)
		sealed[order[tc.at]], sealed[order[tc.later]] = tc.bad(tc.at), tc.other(tc.later)
		got, items, err := c.FetchKeysContext(context.Background(), newFakePKG(t, sealed).conn, r)
		if err == nil || got != nil || items != nil {
			t.Fatalf("%s at %d: fetch returned %d keys, err %v", tc.first, tc.at, len(got), err)
		}
		if !tc.isFirst(err) {
			t.Fatalf("%s at %d, another bad key at %d: got %v, not index %d's error", tc.first, tc.at, tc.later, err, tc.at)
		}
	}
}

// TestPageOpCounts pins what a page costs the client once the keys are
// fetched, to the digit: n messages under k keys take exactly k public
// scalar multiplications — the private keys' order checks, first pairing
// arguments — and n pairings. Encapsulation points, only ever second
// arguments, are curve-checked without a multiplication by q. A second
// page on the same client under the same identities takes its keys and
// their lines from the client's cache: no extract request, no order
// check, no G1Precomp (the cache holds the very Decapsulators it held
// before the page), and the same n pairings.
func TestPageOpCounts(t *testing.T) {
	const n, k = 48, 6
	c, r, keys, payloads := buildEpochRetrieval(t, n, k)
	_, sealed := pageKeys(t, c, r, keys)
	pkg := newFakePKG(t, sealed)
	for _, row := range []struct {
		page                      string
		requests, mults, pairings uint64
	}{
		{"first page", 1, k, n},
		{"second page", 0, 0, n},
	} {
		lines := cachedLines(t, c, r)
		before := obsv.CounterMap()
		got, _, err := c.FetchKeysContext(context.Background(), pkg.conn, r)
		if err != nil {
			t.Fatal(err)
		}
		msgs, err := c.DecryptRetrieval(context.Background(), r, got)
		if err != nil {
			t.Fatal(err)
		}
		after := obsv.CounterMap()
		if len(msgs) != len(payloads) {
			t.Fatalf("%s: decrypted %d of %d messages", row.page, len(msgs), len(payloads))
		}
		mults := after["scalar_mult_public"] - before["scalar_mult_public"]
		pairings := after["pairing_ops"] - before["pairing_ops"]
		if mults != row.mults || pairings != row.pairings {
			t.Errorf("%s, %d messages under %d keys: %d public scalar mults and %d pairings; want %d and %d",
				row.page, n, k, mults, pairings, row.mults, row.pairings)
		}
		if requests, _ := pkg.take(); uint64(requests) != row.requests {
			t.Errorf("%s: %d extract requests, want %d", row.page, requests, row.requests)
		}
		if row.requests == 0 && !maps.Equal(cachedLines(t, c, r), lines) {
			t.Errorf("%s built Miller lines for keys the cache held", row.page)
		}
	}
	if held := len(cachedLines(t, c, r)); held != k {
		t.Errorf("cache holds %d keys after two pages under %d", held, k)
	}
}

// cachedLines is what c's key cache holds of r's identities: each one's
// Decapsulator. The probe refreshes each key it finds, in page order.
func cachedLines(t *testing.T, c *Client, r *Retrieval) map[keyIndex]*bfibe.Decapsulator {
	t.Helper()
	lines := make(map[keyIndex]*bfibe.Decapsulator)
	for i := range r.Items {
		k := mustKeyIndex(t, &r.Items[i])
		if e, ok := c.keys.Get(k); ok {
			d, err := e.lines()
			if err != nil {
				t.Fatal(err)
			}
			lines[k] = d
		}
	}
	return lines
}

// BenchmarkFetchKeysPage is a page's key fetch on bf80 against a fake PKG
// on loopback: 48 sealed keys — rc-drain's rclient.keys_per_page — opened
// and order-checked, the work of the client's keys.open span. Nothing is
// decrypted, so no key enters the cache and every fetch asks the PKG.
func BenchmarkFetchKeysPage(b *testing.B) {
	p, mk, err := bfibe.Setup(pairing.ParamsBF80.MustSystem(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	_, _, rsaKey := env(b)
	c := &Client{id: "rc", priv: rsaKey, params: p, now: time.Now}
	r := &Retrieval{}
	session := sealToken(b, c, r)
	sealed := make(map[keyIndex][]byte)
	for range 48 {
		nonce, err := attr.NewNonce(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		sk, err := mk.Extract(p, attr.Identity("ELECTRIC-X", nonce))
		if err != nil {
			b.Fatal(err)
		}
		r.Items = append(r.Items, Envelope{AID: 1, Nonce: nonce[:]})
		if sealed[mustKeyIndex(b, &r.Items[len(r.Items)-1])], err = ticket.SealExtractedKey(session, bfibe.MarshalPrivateKey(p, sk)); err != nil {
			b.Fatal(err)
		}
	}
	pkg := newFakePKG(b, sealed)
	for b.Loop() {
		if _, _, err := c.FetchKeysContext(context.Background(), pkg.conn, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrievalPageWarm is rc-drain's steady-state page on bf80 with
// the retrieval already in hand: 256 messages under 48 keys the client's
// cache holds, fetched without an extract frame and decrypted with the
// cached lines — 256 precomputed-line pairings and AEAD opens. Each warm
// page is a new retrieval, as each of rc-drain's is, whose token is
// corrupt: the benchmark fails if a warm page unwraps its token, as it
// fails on a second extract request.
func BenchmarkRetrievalPageWarm(b *testing.B) {
	p, mk, err := bfibe.Setup(pairing.ParamsBF80.MustSystem(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	_, _, rsaKey := env(b)
	c := &Client{id: "rc", priv: rsaKey, params: p, now: time.Now}
	cold, keys, _ := sealPage(b, p, mk, 256, 48)
	_, sealed := pageKeys(b, c, cold, keys)
	pkg := newFakePKG(b, sealed)
	page := func(r *Retrieval) {
		got, _, err := c.FetchKeysContext(context.Background(), pkg.conn, r)
		if err == nil {
			_, err = c.DecryptRetrieval(context.Background(), r, got)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	page(cold) // the cold page fills the cache
	corrupt := corruptToken(cold.tokenBlob)
	for b.Loop() {
		page(&Retrieval{Items: cold.Items, tokenBlob: corrupt})
	}
	if requests, _ := pkg.take(); requests != 1 {
		b.Fatalf("%d extract requests, want the cold page's 1", requests)
	}
}
