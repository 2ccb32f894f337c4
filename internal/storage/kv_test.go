package storage

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"mwskit/internal/obsv"
)

// kvVariants are the ways a kv comes to exist: standalone through OpenKV
// (one part), striped across a provider's shards, and volatile.
var kvVariants = []struct {
	name string
	open func(t *testing.T, dir string) (kv KV, closeFn func() error)
	keep bool // contents survive close + open on the same dir
}{
	{"OpenKV", func(t *testing.T, dir string) (KV, func() error) {
		kv, err := OpenKV(filepath.Join(dir, "kv"), SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		return kv, kv.Close
	}, true},
	{"striped", func(t *testing.T, dir string) (KV, func() error) {
		return providerKV(t, dir, Options{Shards: 8})
	}, true},
	{"memory", func(t *testing.T, dir string) (KV, func() error) {
		return providerKV(t, dir, Options{Backend: BackendMemory})
	}, false},
}

func providerKV(t *testing.T, dir string, opts Options) (KV, func() error) {
	t.Helper()
	p, err := Open(Config{Dir: dir, Sync: SyncNever, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := p.KV("policy")
	if err != nil {
		t.Fatal(err)
	}
	return kv, p.Close
}

func forEachKV(t *testing.T, fn func(t *testing.T, kv KV)) {
	for _, v := range kvVariants {
		t.Run(v.name, func(t *testing.T) {
			kv, closeFn := v.open(t, t.TempDir())
			defer closeFn()
			fn(t, kv)
		})
	}
}

func mustPut(t *testing.T, kv KV, key string, value []byte) {
	t.Helper()
	if err := kv.Put(key, value); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func TestKVPutGetDelete(t *testing.T) {
	forEachKV(t, func(t *testing.T, kv KV) {
		if _, ok := kv.Get("missing"); ok {
			t.Fatal("Get on empty store returned a value")
		}
		mustPut(t, kv, "k1", []byte("v1"))
		if v, ok := kv.Get("k1"); !ok || !bytes.Equal(v, []byte("v1")) {
			t.Fatalf("Get = %q, %v", v, ok)
		}
		mustPut(t, kv, "k1", []byte("v2"))
		if v, _ := kv.Get("k1"); !bytes.Equal(v, []byte("v2")) {
			t.Fatal("overwrite did not take")
		}
		if err := kv.Delete("k1"); err != nil {
			t.Fatal(err)
		}
		if _, ok := kv.Get("k1"); ok {
			t.Fatal("deleted key still present")
		}
		muts := kv.Mutations()
		if err := kv.Delete("k1"); err != nil {
			t.Fatal("double delete errored")
		}
		if kv.Mutations() != muts {
			t.Fatal("deleting an absent key was logged")
		}
	})
}

// TestKVCopies: Put copies its input, Get returns a copy.
func TestKVCopies(t *testing.T) {
	forEachKV(t, func(t *testing.T, kv KV) {
		val := []byte{1, 2, 3}
		mustPut(t, kv, "k", val)
		val[0] = 99
		got, _ := kv.Get("k")
		if got[0] != 1 {
			t.Fatal("Put aliased caller memory")
		}
		got[0] = 98
		if again, _ := kv.Get("k"); again[0] != 1 {
			t.Fatal("Get exposed internal state")
		}
	})
}

func TestKVKeysSortedAndRange(t *testing.T) {
	forEachKV(t, func(t *testing.T, kv KV) {
		var want []string
		for i := 0; i < 30; i++ {
			k := fmt.Sprintf("key-%02d", (i*7)%30) // inserted out of order
			want = append(want, k)
			mustPut(t, kv, k, []byte{byte(i)})
		}
		sort.Strings(want)
		if keys := kv.Keys(); fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Fatalf("Keys() = %v", keys)
		}
		if kv.Len() != 30 {
			t.Fatalf("Len = %d", kv.Len())
		}
		n := 0
		kv.Range(func(string, []byte) bool { n++; return true })
		if n != 30 {
			t.Fatalf("Range visited %d keys", n)
		}
		// Early stop holds across part boundaries too.
		n = 0
		kv.Range(func(string, []byte) bool { n++; return n < 3 })
		if n != 3 {
			t.Fatalf("early-stop Range visited %d keys", n)
		}
	})
}

// TestKVDurability: puts, deletes and overwrites all replay on reopen.
func TestKVDurability(t *testing.T) {
	for _, v := range kvVariants {
		if !v.keep {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			kv, closeFn := v.open(t, dir)
			for i := 0; i < 50; i++ {
				mustPut(t, kv, fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i)))
			}
			for i := 0; i < 50; i += 3 {
				if err := kv.Delete(fmt.Sprintf("key-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			mustPut(t, kv, "key-1", []byte("rewritten"))
			if err := closeFn(); err != nil {
				t.Fatal(err)
			}

			kv2, closeFn := v.open(t, dir)
			defer closeFn()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i)
				want := fmt.Sprintf("val-%d", i)
				if i == 1 {
					want = "rewritten"
				}
				got, ok := kv2.Get(key)
				if i%3 == 0 {
					if ok {
						t.Fatalf("%s should be deleted", key)
					}
				} else if !ok || string(got) != want {
					t.Fatalf("%s = %q, ok=%v", key, got, ok)
				}
			}
		})
	}
}

// TestKVCompact: compaction leaves one logged Put per live key, keeps
// the data, and the store stays writable and durable afterwards.
func TestKVCompact(t *testing.T) {
	for _, v := range kvVariants {
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			kv, closeFn := v.open(t, dir)
			// Heavy churn on a small keyspace.
			for round := 0; round < 20; round++ {
				for i := 0; i < 10; i++ {
					mustPut(t, kv, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("r%d", round)))
				}
			}
			if err := kv.Delete("k9"); err != nil {
				t.Fatal(err)
			}
			if before := kv.Mutations(); before != 201 {
				t.Fatalf("mutations = %d, want 201", before)
			}
			if err := kv.Compact(); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if kv.Mutations() != 9 {
				t.Fatalf("post-compact mutations = %d, want 9", kv.Mutations())
			}
			for i := 0; i < 9; i++ {
				if v, ok := kv.Get(fmt.Sprintf("k%d", i)); !ok || string(v) != "r19" {
					t.Fatalf("post-compact k%d = %q, ok=%v", i, v, ok)
				}
			}
			if _, ok := kv.Get("k9"); ok {
				t.Fatal("deleted key resurrected by compaction")
			}
			mustPut(t, kv, "new", []byte("post-compact"))
			if err := closeFn(); err != nil {
				t.Fatal(err)
			}
			if !v.keep {
				return
			}
			kv2, closeFn := v.open(t, dir)
			defer closeFn()
			if v, ok := kv2.Get("new"); !ok || string(v) != "post-compact" {
				t.Fatal("post-compaction write lost across reopen")
			}
			if kv2.Len() != 10 || kv2.Mutations() != 10 {
				t.Fatalf("post-compact reopen: Len = %d, Mutations = %d, want 10, 10", kv2.Len(), kv2.Mutations())
			}
		})
	}
}

// TestKVCompactKeepsSyncPolicy: a KV opened SyncNever must not start
// fsyncing every Put once it has been compacted.
func TestKVCompactKeepsSyncPolicy(t *testing.T) {
	kv, err := OpenKV(t.TempDir(), SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	mustPut(t, kv, "k", []byte("v"))
	if err := kv.Compact(); err != nil {
		t.Fatal(err)
	}
	before := obsv.CounterMap()["wal_fsyncs"]
	for i := 0; i < 20; i++ {
		mustPut(t, kv, fmt.Sprintf("k%d", i), []byte("v"))
	}
	if got := obsv.CounterMap()["wal_fsyncs"] - before; got != 0 {
		t.Fatalf("%d fsyncs for 20 Puts on a compacted SyncNever KV, want 0", got)
	}
}

// TestKVPropertyModelCheck: a kv behaves exactly like a map under any
// sequence of puts and deletes.
func TestKVPropertyModelCheck(t *testing.T) {
	forEachKV(t, func(t *testing.T, kv KV) {
		model := make(map[string]string)
		err := quick.Check(func(key uint8, value string, del bool) bool {
			k := fmt.Sprintf("key-%d", key%16)
			if del {
				if err := kv.Delete(k); err != nil {
					return false
				}
				delete(model, k)
			} else {
				if err := kv.Put(k, []byte(value)); err != nil {
					return false
				}
				model[k] = value
			}
			if kv.Len() != len(model) {
				return false
			}
			for mk, mv := range model {
				if v, ok := kv.Get(mk); !ok || string(v) != mv {
					return false
				}
			}
			return true
		}, &quick.Config{MaxCount: 300})
		if err != nil {
			t.Fatal(err)
		}
	})
}
