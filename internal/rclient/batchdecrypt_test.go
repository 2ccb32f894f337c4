package rclient

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"strings"
	"testing"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
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
	scheme := symenc.Default()
	r := &Retrieval{}
	keys := make(map[keyIndex]*bfibe.PrivateKey)
	payloads := make([][]byte, n)
	nonces := make([]attr.Nonce, epochs)
	for i := range nonces {
		var err error
		if nonces[i], err = attr.NewNonce(rand.Reader); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		payloads[i] = []byte(fmt.Sprintf("reading-%d", i))
		a := attr.Attribute("ELECTRIC-X")
		nonce := nonces[i%epochs]
		identity := attr.Identity(a, nonce)
		enc, key, err := params.Encapsulate(identity, scheme.KeyLen(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		u := bfibe.MarshalEncapsulation(params, enc)
		aad := wire.MessageAAD("meter", 1278000000, nonce[:], u)
		ct, err := scheme.Seal(key, payloads[i], aad)
		if err != nil {
			t.Fatal(err)
		}
		sk, err := master.Extract(params, identity)
		if err != nil {
			t.Fatal(err)
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
		keys[keyIndexOf(aid, nonce[:])] = sk
	}
	return c, r, keys, payloads
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

func TestDecryptRetrievalMissingKey(t *testing.T) {
	c, r, keys, _ := buildRetrieval(t, 4)
	delete(keys, keyIndexOf(r.Items[2].AID, r.Items[2].Nonce))
	if _, err := c.DecryptRetrieval(context.Background(), r, keys); err == nil {
		t.Fatal("missing key did not fail the batch")
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

// TestDecryptRetrievalOffSubgroupPointFails: an envelope whose U is on
// the curve but outside G1 — the invalid-point probe of the private key —
// is refused by the decoder and fails the page; no plaintext of the other
// envelopes is handed back.
func TestDecryptRetrievalOffSubgroupPointFails(t *testing.T) {
	c, r, keys, _ := buildEpochRetrieval(t, 6, 2)
	curve := c.params.Sys.Curve
	var bad []byte
	for x := int64(1); bad == nil; x++ {
		xe := curve.F.FromInt64(x)
		y, ok := xe.Square().Mul(xe).Add(xe).Sqrt()
		if !ok || y.IsZero() {
			continue
		}
		pt, err := curve.NewPoint(xe, y)
		if err == nil && !curve.ScalarBaseOrderCheck(pt) {
			bad = curve.Bytes(pt)
		}
	}
	r.Items[4].U = bad
	msgs, err := c.DecryptRetrieval(context.Background(), r, keys)
	if err == nil || msgs != nil {
		t.Fatalf("off-subgroup U did not fail the page: %v, %v", msgs, err)
	}
	if !strings.Contains(err.Error(), "order-q subgroup") {
		t.Fatalf("page failed for another reason: %v", err)
	}
}
