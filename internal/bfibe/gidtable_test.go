package bfibe

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"mwskit/internal/pairing"
)

// gidCombs calls gID n times on id and returns the table each call
// returned, nil where it had none.
func gidCombs(t *testing.T, p *Params, id []byte, n int) []*pairing.GTComb {
	t.Helper()
	combs := make([]*pairing.GTComb, n)
	for i := range combs {
		_, comb, err := p.gID(id)
		if err != nil {
			t.Fatal(err)
		}
		combs[i] = comb
	}
	return combs
}

// TestGIDTableBuiltAtThreshold: an identity's first use misses and its
// next gidTableUses−1 hits run without a table; the gidTableUses-th hit
// builds one and every later hit returns that same table. Keys derived
// before and after the build decapsulate.
func TestGIDTableBuiltAtThreshold(t *testing.T) {
	p, mk := freshParams(t)
	id := []byte("ELECTRIC-APT-SV-CA||nonce-hot")
	combs := gidCombs(t, p, id, gidTableUses+4)
	for i, comb := range combs[:gidTableUses] {
		if comb != nil {
			t.Fatalf("use %d, below the threshold of %d hits, has a table", i+1, gidTableUses)
		}
	}
	built := combs[gidTableUses]
	if built == nil {
		t.Fatalf("hit %d has no table", gidTableUses)
	}
	for i, comb := range combs[gidTableUses:] {
		if comb != built {
			t.Fatalf("use %d returned another table than the one built", gidTableUses+1+i)
		}
	}
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		enc, key := encapsulate(t, p, id)
		if got, err := p.Decapsulate(sk, enc, 16); err != nil || !bytes.Equal(got, key) {
			t.Fatalf("encapsulation %d from the table does not decapsulate (%v)", i, err)
		}
	}
}

// TestGIDTableSameBytes: with the same entropy, an encapsulation from a
// hot identity's table is byte for byte the one of a Params without the
// cache, whose variable-base window TestGoldenGID pins to the parent
// commit's bytes.
func TestGIDTableSameBytes(t *testing.T) {
	p, mk := freshParams(t)
	cold := ParamsFromMaster(p.Sys, mk)
	cold.SetGIDCacheCap(0)
	id := []byte("ELECTRIC-APT-SV-CA||nonce-bytes")
	if combs := gidCombs(t, p, id, gidTableUses+1); combs[gidTableUses] == nil {
		t.Fatal("no table after the threshold")
	}
	for i := 0; i < 8; i++ {
		entropy := bytes.Repeat([]byte{byte(17*i + 1)}, 256)
		enc, key, err := p.Encapsulate(id, 16, bytes.NewReader(entropy))
		if err != nil {
			t.Fatal(err)
		}
		wantEnc, wantKey, err := cold.Encapsulate(id, 16, bytes.NewReader(entropy))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(key, wantKey) || !bytes.Equal(MarshalEncapsulation(p, enc), MarshalEncapsulation(cold, wantEnc)) {
			t.Fatalf("entropy %d: the table's encapsulation differs from the window's", i)
		}
	}
}

// TestGIDTableOneBuildConcurrent runs encryptors on a few identities at
// once, each interleaving Encapsulate with gID: every identity ends with
// exactly one table, the one every caller that got a table got. A second
// build would hand its own table to at least the call that built it.
func TestGIDTableOneBuildConcurrent(t *testing.T) {
	p, _ := freshParams(t)
	ids := make([][]byte, 3)
	for i := range ids {
		ids[i] = []byte(fmt.Sprintf("meter-%d||nonce-race", i))
	}
	const workers, rounds = 6, 3 * gidTableUses
	var mu sync.Mutex
	seen := make(map[string]map[*pairing.GTComb]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := ids[(w+i)%len(ids)]
				if _, _, err := p.Encapsulate(id, 16, rand.Reader); err != nil {
					t.Error(err)
					return
				}
				_, comb, err := p.gID(id)
				if err != nil {
					t.Error(err)
					return
				}
				if comb != nil {
					mu.Lock()
					if seen[string(id)] == nil {
						seen[string(id)] = make(map[*pairing.GTComb]bool)
					}
					seen[string(id)][comb] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, id := range ids {
		if n := len(seen[string(id)]); n != 1 {
			t.Errorf("%s: %d tables handed out, want 1", id, n)
		}
		if h, ok := p.hot.Get(string(id)); !ok || !seen[string(id)][h.comb.Load()] {
			t.Errorf("%s: the cached table is not the one handed out", id)
		}
	}
}

// TestGIDTableDropped: a disabled cache never builds; invalidating an
// identity, or a bound that drops it, drops its table too, so the
// identity earns a new one from zero hits.
func TestGIDTableDropped(t *testing.T) {
	p, _ := freshParams(t)
	a, b := []byte("id-a||hot"), []byte("id-b||hot")
	p.SetGIDCacheCap(0)
	for i, comb := range gidCombs(t, p, a, 3*gidTableUses) {
		if comb != nil {
			t.Fatalf("disabled cache: use %d has a table", i+1)
		}
	}

	p.SetGIDCacheCap(256)
	old := gidCombs(t, p, a, gidTableUses+1)[gidTableUses]
	p.InvalidateIdentity(a)
	again := gidCombs(t, p, a, gidTableUses+1)
	for i, comb := range again[:gidTableUses] {
		if comb != nil {
			t.Fatalf("after invalidation: use %d has a table", i+1)
		}
	}
	if again[gidTableUses] == nil || again[gidTableUses] == old {
		t.Fatal("after invalidation the identity did not earn a table of its own")
	}

	// Bound 1: b's entry pushes a's, table and all, out of the cache.
	gidCombs(t, p, b, gidTableUses+1)
	p.SetGIDCacheCap(1)
	if _, ok := p.hot.Get(string(a)); ok {
		t.Fatal("a bound of 1 kept the least recently used identity's table")
	}
	if combs := gidCombs(t, p, a, 2); combs[1] != nil {
		t.Fatal("an identity dropped by the bound kept its table")
	}
	p.SetGIDCacheCap(0)
	if _, ok := p.hot.Get(string(b)); ok {
		t.Fatal("disabling the cache kept a table")
	}
}
