package rclient

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/fanout"
	"mwskit/internal/ff"
	"mwskit/internal/obsv"
	"mwskit/internal/symenc"
	"mwskit/internal/wire"
)

// buildRetrieval assembles an offline Retrieval of n messages with
// distinct identities plus the key map FetchKeys would have produced.
func buildRetrieval(t *testing.T, n int) (*Client, *Retrieval, map[keyIndex]*bfibe.PrivateKey, [][]byte) {
	t.Helper()
	return buildEpochRetrieval(t, n, n)
}

// buildEpochRetrieval is buildRetrieval with the n messages spread
// round-robin over epochs nonces, so n/epochs messages share each key —
// the shape a page has when devices keep a nonce for an epoch.
func buildEpochRetrieval(t *testing.T, n, epochs int) (*Client, *Retrieval, map[keyIndex]*bfibe.PrivateKey, [][]byte) {
	t.Helper()
	params, master, rsaKey := env(t)
	c, err := New("rc", []byte("pw"), rsaKey, params)
	if err != nil {
		t.Fatal(err)
	}
	r, keys, payloads := sealPage(t, params, master, n, epochs)
	return c, r, keys, payloads
}

// sealPage plays the devices, the MWS and the PKG offline: n messages
// round-robin over epochs fresh nonces, and the key of each identity.
// Message i is sealed under schemes[i % len(schemes)], or the default
// scheme when none is given.
func sealPage(tb testing.TB, params *bfibe.Params, master *bfibe.MasterKey, n, epochs int, schemes ...symenc.Scheme) (*Retrieval, map[keyIndex]*bfibe.PrivateKey, [][]byte) {
	tb.Helper()
	if len(schemes) == 0 {
		schemes = []symenc.Scheme{symenc.Default()}
	}
	r := &Retrieval{}
	keys := make(map[keyIndex]*bfibe.PrivateKey)
	payloads := make([][]byte, n)
	nonces := make([]attr.Nonce, epochs)
	for i := range nonces {
		var err error
		if nonces[i], err = attr.NewNonce(rand.Reader); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		payloads[i] = []byte(fmt.Sprintf("reading-%d", i))
		scheme := schemes[i%len(schemes)]
		a := attr.Attribute("ELECTRIC-X")
		nonce := nonces[i%epochs]
		identity := attr.Identity(a, nonce)
		enc, key, err := params.Encapsulate(identity, scheme.KeyLen(), rand.Reader)
		if err != nil {
			tb.Fatal(err)
		}
		u := bfibe.MarshalEncapsulation(params, enc)
		aad := wire.MessageAAD("meter", 1278000000, nonce[:], u)
		ct, err := scheme.Seal(key, payloads[i], aad)
		if err != nil {
			tb.Fatal(err)
		}
		aid := uint64(i % epochs % 3) // a few AIDs, one per nonce
		r.Items = append(r.Items, Envelope{
			Seq:        uint64(i),
			AID:        aid,
			Nonce:      nonce[:],
			U:          u,
			Ciphertext: ct,
			Scheme:     scheme.Name(),
			DeviceID:   "meter",
			Timestamp:  1278000000,
		})
		ki := mustKeyIndex(tb, &r.Items[i])
		if keys[ki] == nil {
			if keys[ki], err = master.Extract(params, identity); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return r, keys, payloads
}

// mustKeyIndex is keyIndexOf for an envelope a test built well formed.
func mustKeyIndex(tb testing.TB, env *Envelope) keyIndex {
	tb.Helper()
	ki, err := keyIndexOf(env)
	if err != nil {
		tb.Fatal(err)
	}
	return ki
}

func TestDecryptRetrievalParallelOrder(t *testing.T) {
	c, r, keys, payloads := buildRetrieval(t, 16)
	msgs, err := c.DecryptRetrieval(context.Background(), r, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != len(payloads) {
		t.Fatalf("got %d messages, want %d", len(msgs), len(payloads))
	}
	for i, m := range msgs {
		if m == nil {
			t.Fatalf("message %d missing", i)
		}
		if m.Seq != uint64(i) || !bytes.Equal(m.Payload, payloads[i]) {
			t.Fatalf("message %d out of order or corrupted: %+v", i, m)
		}
	}

	empty, err := c.DecryptRetrieval(context.Background(), &Retrieval{}, keys)
	if err != nil || empty != nil {
		t.Fatalf("empty retrieval: %v, %v", empty, err)
	}
}

// TestDecryptRetrievalMissingKey: a page with a message whose key is
// missing fails, before any pairing, naming that message.
func TestDecryptRetrievalMissingKey(t *testing.T) {
	c, r, keys, _ := buildRetrieval(t, 4)
	delete(keys, mustKeyIndex(t, &r.Items[2]))
	before := obsv.CounterMap()["pairing_ops"]
	if _, err := c.DecryptRetrieval(context.Background(), r, keys); err == nil || !strings.Contains(err.Error(), "message 2") {
		t.Fatalf("missing key did not fail the batch at message 2: %v", err)
	}
	if n := obsv.CounterMap()["pairing_ops"] - before; n != 0 {
		t.Fatalf("a page missing a key paid %d pairings", n)
	}
}

func TestDecryptRetrievalCanceled(t *testing.T) {
	c, r, keys, _ := buildRetrieval(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.DecryptRetrieval(ctx, r, keys); err == nil {
		t.Fatal("canceled context accepted")
	}
}

func TestDecryptRetrievalBadCiphertextFails(t *testing.T) {
	c, r, keys, _ := buildRetrieval(t, 6)
	r.Items[3].Ciphertext[0] ^= 1
	if _, err := c.DecryptRetrieval(context.Background(), r, keys); err == nil {
		t.Fatal("tampered ciphertext did not fail the batch")
	}
}

// TestDecryptRetrievalSharedKeys: 48 messages under 3 keys, so every
// worker of the pool meets every key and the lazily built Decapsulators
// are shared across goroutines — the case the race detector is run for
// (scripts/check.sh runs the suite under -race).
func TestDecryptRetrievalSharedKeys(t *testing.T) {
	c, r, keys, payloads := buildEpochRetrieval(t, 48, 3)
	if len(keys) != 3 {
		t.Fatalf("fixture has %d keys, want 3", len(keys))
	}
	for round := 0; round < 4; round++ {
		msgs, err := c.DecryptRetrieval(context.Background(), r, keys)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range msgs {
			if m == nil || m.Seq != uint64(i) || !bytes.Equal(m.Payload, payloads[i]) {
				t.Fatalf("round %d: message %d out of order or corrupted: %+v", round, i, m)
			}
		}
	}
}

// TestDecryptRetrievalOffSubgroupPointFails: an envelope whose U is moved
// off G1 by a point T of order dividing h decodes (U is only ever a
// second pairing argument) and decapsulates to U's own key, but the
// ciphertext's AAD binds U's bytes, so the AEAD open fails and with it
// the page; no plaintext of any envelope is handed back.
func TestDecryptRetrievalOffSubgroupPointFails(t *testing.T) {
	c, r, keys, _ := buildEpochRetrieval(t, 6, 2)
	curve := c.params.Sys.Curve
	tors := curve.Infinity()
	for x := int64(1); tors.Inf; x++ {
		xe := curve.F.FromInt64(x)
		if y, ok := xe.Square().Mul(xe).Add(xe).Sqrt(); ok {
			s, err := curve.NewPoint(xe, y)
			if err != nil {
				t.Fatal(err)
			}
			tors = curve.ScalarMult(s, curve.Q)
		}
	}
	u, err := curve.PointFromBytes(r.Items[4].U)
	if err != nil {
		t.Fatal(err)
	}
	r.Items[4].U = curve.Bytes(curve.Add(u, tors))
	msgs, err := c.DecryptRetrieval(context.Background(), r, keys)
	if err == nil || msgs != nil {
		t.Fatalf("off-subgroup U did not fail the page: %v, %v", msgs, err)
	}
	if !errors.Is(err, symenc.ErrAuth) || !strings.Contains(err.Error(), "message 4") {
		t.Fatalf("page failed for another reason than message 4's AEAD open: %v", err)
	}
}

// TestDecryptRetrievalSplitsLongRuns: 20 messages over 3 keys are cut in
// deposit order into three chunks (8, 8 and 4 messages) whatever their
// keys, each its own fan-out task and lane batch, and come back in
// deposit order. The ibe.decapsulate span reports the chunks, the page's
// distinct keys, the workers and the lane verdict.
func TestDecryptRetrievalSplitsLongRuns(t *testing.T) {
	n := 2*ff.LaneWidth + 4
	c, r, keys, payloads := buildEpochRetrieval(t, n, 3)
	tr := obsv.NewTracer("rc", 16, 0, nil)
	ctx, root := tr.StartRoot(context.Background(), "page")
	msgs, err := c.DecryptRetrieval(ctx, r, keys)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		if m == nil || m.Seq != uint64(i) || !bytes.Equal(m.Payload, payloads[i]) {
			t.Fatalf("message %d out of order or corrupted: %+v", i, m)
		}
	}
	want := map[string]string{
		"messages": strconv.Itoa(n),
		"batches":  "3",
		"keys":     "3",
		"workers":  strconv.Itoa(fanout.Workers(3)),
		"lanes":    strconv.FormatBool(c.params.Sys.Curve.F.HasLanes()),
	}
	for _, s := range tr.Snapshot(0, root.Context().TraceID) {
		if s.Name != "ibe.decapsulate" {
			continue
		}
		for _, a := range s.Attrs {
			if w, ok := want[a.Key]; ok && a.Value == w {
				delete(want, a.Key)
			}
		}
	}
	if len(want) != 0 {
		t.Fatalf("ibe.decapsulate span lacks %v", want)
	}
}

// TestDecryptRetrievalMixedKeyLengths: AES-128-GCM and AES-256-GCM
// messages alternate under one key, so each of its runs decapsulates
// 16- and 32-byte keys side by side; the page decrypts.
func TestDecryptRetrievalMixedKeyLengths(t *testing.T) {
	params, master, rsaKey := env(t)
	c, err := New("rc", []byte("pw"), rsaKey, params)
	if err != nil {
		t.Fatal(err)
	}
	r, keys, payloads := sealPage(t, params, master, 12, 1, symenc.AES128GCM, symenc.AES256GCM)
	msgs, err := c.DecryptRetrieval(context.Background(), r, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		if !bytes.Equal(m.Payload, payloads[i]) {
			t.Fatalf("message %d (%s) decrypted to %q", i, r.Items[i].Scheme, m.Payload)
		}
	}
}
