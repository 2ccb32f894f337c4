package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mwskit/internal/obsv"
	"mwskit/internal/wal"
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

// kvLen counts the live keys.
func kvLen(k KV) int {
	n := 0
	k.Range(func(string, []byte) bool { n++; return true })
	return n
}

// mutations sums the parts' counts of logged operations since their
// last compaction, which the compaction heuristic reads.
func mutations(k KV) uint64 {
	var n uint64
	for _, p := range k.(*kv).parts {
		p.mu.RLock()
		n += p.mutations
		p.mu.RUnlock()
	}
	return n
}

// compactAll compacts every part unconditionally.
func compactAll(k KV) error {
	_, err := k.(*kv).compact(0)
	return err
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
		muts := mutations(kv)
		if err := kv.Delete("k1"); err != nil {
			t.Fatal("double delete errored")
		}
		if mutations(kv) != muts {
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
		var keys []string
		kv.Range(func(k string, _ []byte) bool { keys = append(keys, k); return true })
		if sort.Strings(keys); fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Fatalf("Range visited %v", keys)
		}
		// Early stop holds across part boundaries too.
		n := 0
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
			if before := mutations(kv); before != 201 {
				t.Fatalf("mutations = %d, want 201", before)
			}
			if err := compactAll(kv); err != nil {
				t.Fatalf("Compact: %v", err)
			}
			if mutations(kv) != 9 {
				t.Fatalf("post-compact mutations = %d, want 9", mutations(kv))
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
			if kvLen(kv2) != 10 || mutations(kv2) != 10 {
				t.Fatalf("post-compact reopen: Len = %d, Mutations = %d, want 10, 10", kvLen(kv2), mutations(kv2))
			}
		})
	}
}

// TestKVCompactKeepsSyncPolicy: each sequential Put or Delete costs
// exactly one fsync at SyncAlways and none at SyncNever, before and after
// a compaction — a KV opened SyncNever must not start fsyncing every Put
// once it has been compacted.
func TestKVCompactKeepsSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sync  SyncPolicy
		perOp uint64
	}{{"SyncNever", SyncNever, 0}, {"SyncAlways", SyncAlways, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			kv, err := OpenKV(t.TempDir(), tc.sync)
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			churn := func(phase string) {
				t.Helper()
				before := obsv.CounterMap()["wal_fsyncs"]
				for i := 0; i < 20; i++ {
					mustPut(t, kv, fmt.Sprintf("k%d", i), []byte("v"))
				}
				for i := 0; i < 20; i += 2 {
					if err := kv.Delete(fmt.Sprintf("k%d", i)); err != nil {
						t.Fatal(err)
					}
				}
				if got := obsv.CounterMap()["wal_fsyncs"] - before; got != 30*tc.perOp {
					t.Fatalf("%s: %d fsyncs for 20 Puts and 10 Deletes, want %d", phase, got, 30*tc.perOp)
				}
			}
			churn("fresh")
			if err := compactAll(kv); err != nil {
				t.Fatal(err)
			}
			churn("compacted")
		})
	}
}

// TestKVClosedStaysClosed: once closed, a durable KV refuses Put, Delete
// and Compact with wal.ErrClosed and changes nothing on disk: no log is
// reopened and no compaction directory appears.
func TestKVClosedStaysClosed(t *testing.T) {
	for _, v := range kvVariants {
		if !v.keep {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			kv, closeFn := v.open(t, dir)
			mustPut(t, kv, "k", []byte("v"))
			if err := closeFn(); err != nil {
				t.Fatal(err)
			}
			before := treeContents(t, dir)
			if err := compactAll(kv); !errors.Is(err, wal.ErrClosed) {
				t.Errorf("Compact after Close = %v, want wal.ErrClosed", err)
			}
			if err := kv.Put("k2", []byte("v")); !errors.Is(err, wal.ErrClosed) {
				t.Errorf("Put after Close = %v, want wal.ErrClosed", err)
			}
			if err := kv.Delete("k"); !errors.Is(err, wal.ErrClosed) {
				t.Errorf("Delete after Close = %v, want wal.ErrClosed", err)
			}
			if after := treeContents(t, dir); !reflect.DeepEqual(before, after) {
				t.Errorf("closed KV changed its directory: %d files before, %d after", len(before), len(after))
			}
			filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if ext := filepath.Ext(path); ext == ".compact" || ext == ".old" {
					t.Errorf("closed KV left %s behind", path)
				}
				return err
			})
		})
	}
}

// TestProviderCompactRacesClose runs Provider.Compact against
// Provider.Close: compaction either finishes first or meets closed parts
// and reports wal.ErrClosed, and no part is reopened behind Close.
func TestProviderCompactRacesClose(t *testing.T) {
	for i := 0; i < 10; i++ {
		dir := t.TempDir()
		p, err := Open(Config{Dir: dir, Sync: SyncAlways, Options: Options{Shards: 4}})
		if err != nil {
			t.Fatal(err)
		}
		kv, err := p.KV("policy")
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 64; k++ {
			mustPut(t, kv, fmt.Sprintf("k%d", k%16), []byte{byte(k)})
		}
		compacted := make(chan error, 1)
		go func() {
			_, err := p.Compact(0)
			compacted <- err
		}()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-compacted; err != nil && !errors.Is(err, wal.ErrClosed) {
			t.Fatalf("Compact racing Close: %v", err)
		}
		if err := kv.Put("late", nil); !errors.Is(err, wal.ErrClosed) {
			t.Fatalf("Put after Close = %v, want wal.ErrClosed", err)
		}
		re, err := Open(Config{Dir: dir, Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		rekv, err := re.KV("policy")
		if err != nil {
			t.Fatal(err)
		}
		if kvLen(rekv) != 16 {
			t.Fatalf("reopened after Compact raced Close: %d keys, want 16", kvLen(rekv))
		}
		re.Close()
	}
}

// TestKVCompactInterrupted: a compaction that stops after its rewritten
// segment is synced but before every old segment is removed — restored
// here by copying the old segments back — replays to the same contents.
func TestKVCompactInterrupted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "kv")
	kv, err := OpenKV(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for i := 0; i < 10; i++ {
			mustPut(t, kv, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("r%d", round)))
		}
		if err := kv.Delete(fmt.Sprintf("k%d", round)); err != nil {
			t.Fatal(err)
		}
	}
	want := kvContents(kv)
	old := treeContents(t, dir)
	if err := compactAll(kv); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	for path, data := range old {
		if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	re, err := OpenKV(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := kvContents(re); !reflect.DeepEqual(got, want) {
		t.Fatalf("old segments beside the rewritten one replay to %v, want %v", got, want)
	}
}

func kvContents(kv KV) map[string]string {
	out := make(map[string]string)
	kv.Range(func(k string, v []byte) bool {
		out[k] = string(v)
		return true
	})
	return out
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
			if kvLen(kv) != len(model) {
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
