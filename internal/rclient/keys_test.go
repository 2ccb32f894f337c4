package rclient

import (
	"context"
	"crypto/rand"
	"errors"
	"log/slog"
	"strings"
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

// pageKeys seals a retrieval's keys as the PKG would answer FetchKeys: in
// the order of each (AID, nonce)'s first appearance, marshalled and sealed
// under a fresh session key, which it sets on r.
func pageKeys(t *testing.T, c *Client, r *Retrieval, keys map[keyIndex]*bfibe.PrivateKey) [][]byte {
	t.Helper()
	var err error
	if r.SessionKey, err = ticket.NewSessionKey(rand.Reader); err != nil {
		t.Fatal(err)
	}
	var sealed [][]byte
	seen := make(map[keyIndex]bool)
	for _, it := range r.Items {
		k := keyIndexOf(it.AID, it.Nonce)
		if seen[k] {
			continue
		}
		seen[k] = true
		s, err := ticket.SealExtractedKey(r.SessionKey, bfibe.MarshalPrivateKey(c.params, keys[k]))
		if err != nil {
			t.Fatal(err)
		}
		sealed = append(sealed, s)
	}
	return sealed
}

// fakePKG answers every Extract with the given sealed keys: the key server
// of these tests, doing no arithmetic of its own.
func fakePKG(t testing.TB, sealed [][]byte) *wire.Client {
	t.Helper()
	r := wire.NewRouter()
	wire.Route(r, wire.OpExtract, func(context.Context, *wire.ExtractRequest) (*wire.ExtractResponse, error) {
		return &wire.ExtractResponse{SealedKeys: sealed}, nil
	})
	srv := wire.NewServer(r, slog.New(slog.DiscardHandler))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := wire.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
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
	good := pageKeys(t, c, r, keys)
	if len(good) != 8 {
		t.Fatalf("fixture has %d keys, want 8", len(good))
	}
	got, _, err := c.FetchKeysContext(context.Background(), fakePKG(t, good), r)
	if err != nil {
		t.Fatal(err)
	}
	for k, sk := range keys {
		if !got[k].D.Equal(sk.D) {
			t.Fatalf("key %+v opened to another point", k)
		}
	}

	tampered := func(i int) []byte {
		b := append([]byte(nil), good[i]...)
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
			s, err := ticket.SealExtractedKey(r.SessionKey, bfibe.MarshalPrivateKey(c.params, &bfibe.PrivateKey{ID: []byte("x"), D: pt}))
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
		sealed := append([][]byte(nil), good...)
		sealed[tc.at], sealed[tc.later] = tc.bad(tc.at), tc.other(tc.later)
		got, items, err := c.FetchKeysContext(context.Background(), fakePKG(t, sealed), r)
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
// arguments, are curve-checked without a multiplication by q.
func TestPageOpCounts(t *testing.T) {
	const n, k = 48, 6
	c, r, keys, payloads := buildEpochRetrieval(t, n, k)
	pkg := fakePKG(t, pageKeys(t, c, r, keys))
	before := obsv.CounterMap()
	got, _, err := c.FetchKeysContext(context.Background(), pkg, r)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := c.DecryptRetrieval(context.Background(), r, got)
	if err != nil {
		t.Fatal(err)
	}
	after := obsv.CounterMap()
	if len(msgs) != len(payloads) {
		t.Fatalf("decrypted %d of %d messages", len(msgs), len(payloads))
	}
	mults := after["scalar_mult_public"] - before["scalar_mult_public"]
	pairings := after["pairing_ops"] - before["pairing_ops"]
	if mults != k || pairings != n {
		t.Errorf("%d-message page under %d keys: %d public scalar mults and %d pairings; want %d and %d",
			n, k, mults, pairings, k, n)
	}
}

// BenchmarkFetchKeysPage is a page's key fetch on bf80 against a fake PKG
// on loopback: 48 sealed keys — rc-drain's rclient.keys_per_page — opened
// and order-checked, the work of the client's keys.open span.
func BenchmarkFetchKeysPage(b *testing.B) {
	p, mk, err := bfibe.Setup(pairing.ParamsBF80.MustSystem(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	c := &Client{id: "rc", params: p, now: time.Now}
	r := &Retrieval{}
	if r.SessionKey, err = ticket.NewSessionKey(rand.Reader); err != nil {
		b.Fatal(err)
	}
	sealed := make([][]byte, 48)
	for i := range sealed {
		nonce, err := attr.NewNonce(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		sk, err := mk.Extract(p, attr.Identity("ELECTRIC-X", nonce))
		if err != nil {
			b.Fatal(err)
		}
		if sealed[i], err = ticket.SealExtractedKey(r.SessionKey, bfibe.MarshalPrivateKey(p, sk)); err != nil {
			b.Fatal(err)
		}
		r.Items = append(r.Items, Envelope{AID: 1, Nonce: nonce[:]})
	}
	pkg := fakePKG(b, sealed)
	for b.Loop() {
		if _, _, err := c.FetchKeysContext(context.Background(), pkg, r); err != nil {
			b.Fatal(err)
		}
	}
}
