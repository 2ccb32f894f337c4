package rclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"mwskit/internal/bfibe"
	"mwskit/internal/ff"
	"mwskit/internal/symenc"
)

// drain runs one page through c as RetrieveAndDecrypt does once the
// retrieval is in hand: the keys from pkg (or the cache), then the
// messages.
func drain(c *Client, pkg *fakePKG, r *Retrieval) ([]*Message, error) {
	keys, _, err := c.FetchKeysContext(context.Background(), pkg.conn, r)
	if err != nil {
		return nil, err
	}
	return c.DecryptRetrieval(context.Background(), r, keys)
}

// wantAsked fails unless the PKG got one request since its last take,
// for exactly the identities want, in any order.
func wantAsked(t *testing.T, what string, pkg *fakePKG, want []keyIndex) {
	t.Helper()
	requests, asked := pkg.take()
	cmp := func(a, b keyIndex) int { return bytes.Compare(a.nonce[:], b.nonce[:]) }
	if requests != 1 || !slices.Equal(slices.SortedFunc(slices.Values(asked), cmp), slices.SortedFunc(slices.Values(want), cmp)) {
		t.Fatalf("%s: %d requests for %d identities, want one for %d", what, requests, len(asked), len(want))
	}
}

// TestKeyCachePerClient: the cache belongs to a Client. A second client
// in the same process, paging the same identities after the first has
// cached them, holds nothing and asks the PKG for every key.
func TestKeyCachePerClient(t *testing.T) {
	a, r, keys, _ := buildEpochRetrieval(t, 12, 4)
	order, sealed := pageKeys(t, a, r, keys)
	pkg := newFakePKG(t, sealed)
	if _, err := drain(a, pkg, r); err != nil {
		t.Fatal(err)
	}
	pkg.take()
	held := cachedLines(t, a, r)
	b, _, _, _ := buildEpochRetrieval(t, 1, 1)
	if held := len(cachedLines(t, b, r)); held != 0 {
		t.Fatalf("a new client holds %d keys", held)
	}
	if _, err := drain(b, pkg, r); err != nil {
		t.Fatal(err)
	}
	wantAsked(t, "second client", pkg, order)
	if len(held) != len(order) || !maps.Equal(cachedLines(t, a, r), held) {
		t.Fatal("the first client's cache changed under the second's page")
	}
}

// TestKeyCacheAdmitsOnlyOpenedKeys: a key enters the cache only once it
// has opened an envelope. Under a tampered ciphertext, or with the wrong
// key from the PKG (a valid key of another identity), the page fails,
// the key is not held, and the next page asks the PKG for it again.
func TestKeyCacheAdmitsOnlyOpenedKeys(t *testing.T) {
	t.Run("TamperedCiphertext", func(t *testing.T) {
		c, r, keys, _ := buildRetrieval(t, 6)
		order, sealed := pageKeys(t, c, r, keys)
		pkg := newFakePKG(t, sealed)
		r.Items[3].Ciphertext[0] ^= 1
		if _, err := drain(c, pkg, r); !errors.Is(err, symenc.ErrAuth) {
			t.Fatalf("tampered page: %v", err)
		}
		pkg.take()
		if _, held := cachedLines(t, c, r)[order[3]]; held {
			t.Fatal("the tampered envelope's key was admitted")
		}
		r.Items[3].Ciphertext[0] ^= 1
		if _, err := drain(c, pkg, r); err != nil {
			t.Fatal(err)
		}
		if _, asked := pkg.take(); !slices.Contains(asked, order[3]) {
			t.Fatal("the next page took the tampered envelope's key from the cache")
		}
	})
	t.Run("WrongKeyFromPKG", func(t *testing.T) {
		c, r, keys, _ := buildEpochRetrieval(t, 6, 3)
		order, sealed := pageKeys(t, c, r, keys)
		sealed[order[1]] = sealed[order[2]]
		pkg := newFakePKG(t, sealed)
		if _, _, err := c.FetchKeysContext(context.Background(), pkg.conn, r); err != nil {
			t.Fatal(err)
		}
		if held := len(cachedLines(t, c, r)); held != 0 {
			t.Fatalf("fetching alone cached %d keys that have opened nothing", held)
		}
		pkg.take()
		for page := range 2 {
			if _, err := drain(c, pkg, r); !errors.Is(err, symenc.ErrAuth) {
				t.Fatalf("page %d under a wrong key: %v", page, err)
			}
			if _, held := cachedLines(t, c, r)[order[1]]; held {
				t.Fatalf("page %d admitted the wrong key", page)
			}
			if _, asked := pkg.take(); !slices.Contains(asked, order[1]) {
				t.Fatalf("page %d took the wrong key from the cache", page)
			}
		}
	})
}

// TestKeyCacheMixedChunk: a forged message under key A, in a lane batch
// with key B's messages, fails the page and drops A, after every chunk
// has returned, so the next page asks the PKG for A again; B, whose
// messages opened, is never dropped, and the next page takes it from the
// cache.
func TestKeyCacheMixedChunk(t *testing.T) {
	c, r, keys, _ := buildEpochRetrieval(t, 3*ff.LaneWidth, 2)
	order, sealed := pageKeys(t, c, r, keys)
	a, b := mustKeyIndex(t, &r.Items[1]), mustKeyIndex(t, &r.Items[0])
	pkg := newFakePKG(t, sealed)
	if _, err := drain(c, pkg, r); err != nil {
		t.Fatal(err)
	}
	wantAsked(t, "first page", pkg, order)
	r.Items[ff.LaneWidth+1].Ciphertext[0] ^= 1
	for page := range 2 {
		if _, err := drain(c, pkg, r); !errors.Is(err, symenc.ErrAuth) || !strings.Contains(err.Error(), fmt.Sprintf("message %d", ff.LaneWidth+1)) {
			t.Fatalf("page %d with a forged message: %v", page, err)
		}
		held := cachedLines(t, c, r)
		if _, ok := held[a]; ok {
			t.Fatalf("page %d kept the forged message's key", page)
		}
		if _, ok := held[b]; !ok {
			t.Fatalf("page %d dropped the key whose messages opened", page)
		}
		if page > 0 {
			wantAsked(t, "page after the forged one", pkg, []keyIndex{a})
		}
	}
}

// TestKeyCacheFreshNoncesMiss: under the paper's epoch 1 every message
// has a fresh nonce, so a page after a page shares no identity with it
// and every key of the second page comes from the PKG.
func TestKeyCacheFreshNoncesMiss(t *testing.T) {
	params, master, _ := env(t)
	c, r1, keys1, _ := buildRetrieval(t, 8)
	_, sealed := pageKeys(t, c, r1, keys1)
	r2, keys2, _ := sealPage(t, params, master, 8, 8)
	order2, sealed2 := pageKeys(t, c, r2, keys2)
	maps.Copy(sealed, sealed2)
	pkg := newFakePKG(t, sealed)
	if _, err := drain(c, pkg, r1); err != nil {
		t.Fatal(err)
	}
	pkg.take()
	if _, err := drain(c, pkg, r2); err != nil {
		t.Fatal(err)
	}
	wantAsked(t, "fresh-nonce page", pkg, order2)
}

// TestKeyCacheBounded: a page of more identities than the cache holds
// leaves it at capacity, and the same page again asks the PKG for the
// keys it dropped and no others. That the keys to go are the least
// recently used is internal/lru's TestCacheDropsLeastRecentlyUsed.
func TestKeyCacheBounded(t *testing.T) {
	const n = keyCacheSize + 8
	c, r, keys, _ := buildRetrieval(t, n)
	order, sealed := pageKeys(t, c, r, keys)
	pkg := newFakePKG(t, sealed)
	if _, err := drain(c, pkg, r); err != nil {
		t.Fatal(err)
	}
	pkg.take()
	held := cachedLines(t, c, r)
	if len(held) != keyCacheSize {
		t.Fatalf("cache holds %d keys after %d identities, want %d", len(held), n, keyCacheSize)
	}
	var dropped []keyIndex
	for _, k := range order {
		if _, ok := held[k]; !ok {
			dropped = append(dropped, k)
		}
	}
	if _, _, err := c.FetchKeysContext(context.Background(), pkg.conn, r); err != nil {
		t.Fatal(err)
	}
	wantAsked(t, "second page", pkg, dropped)
}

// TestDecryptRetrievalUsesHandedKey: DecryptRetrieval handed a key for an
// identity the cache holds under another key decrypts with the key it
// was handed. The wrong key fails the page though the cache held the
// right one (and drops it), and a copy of the right key opens it.
func TestDecryptRetrievalUsesHandedKey(t *testing.T) {
	c, r, keys, payloads := buildEpochRetrieval(t, 6, 2)
	order, sealed := pageKeys(t, c, r, keys)
	if _, err := drain(c, newFakePKG(t, sealed), r); err != nil {
		t.Fatal(err)
	}
	if held := len(cachedLines(t, c, r)); held != 2 {
		t.Fatalf("cache holds %d keys, want 2", held)
	}
	wrong := maps.Clone(keys)
	wrong[order[0]] = keys[order[1]]
	if _, err := c.DecryptRetrieval(context.Background(), r, wrong); !errors.Is(err, symenc.ErrAuth) {
		t.Fatalf("page under a handed wrong key: %v", err)
	}
	if _, held := cachedLines(t, c, r)[order[0]]; held {
		t.Fatal("a failed open left its identity in the cache")
	}
	copied := maps.Clone(keys)
	sk := *keys[order[0]]
	copied[order[0]] = &bfibe.PrivateKey{ID: sk.ID, D: sk.D}
	msgs, err := c.DecryptRetrieval(context.Background(), r, copied)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range msgs {
		if !bytes.Equal(m.Payload, payloads[i]) {
			t.Fatalf("message %d decrypted to %q", i, m.Payload)
		}
	}
}
