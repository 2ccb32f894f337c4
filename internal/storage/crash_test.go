package storage

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mwskit/internal/attr"
)

// copyTree snapshots a data directory byte-for-byte — the moral
// equivalent of pulling the plug: whatever the files contain at this
// instant is what a restarted process gets to see.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCrashMidGroupCommit simulates a kill while concurrent
// group-committed deposits are in flight: appenders run against a live
// sharded provider, and at an arbitrary moment the data directory is
// snapshotted without any shutdown. Every deposit acknowledged before
// the snapshot must exist in the reopened copy, and each shard's
// recovered sequence numbers must be strictly monotonic.
func TestShardedCrashMidGroupCommit(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(Config{Dir: dir, Sync: SyncAlways, Options: Options{
		Backend: BackendSharded, Shards: 4,
	}})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	var (
		mu    sync.Mutex
		acked []uint64
		stop  = make(chan struct{})
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				seq, err := p.Append(context.Background(), testMessage(testAttr((w*3+i)%8), i))
				if err != nil {
					return // provider torn down under us
				}
				mu.Lock()
				acked = append(acked, seq)
				mu.Unlock()
			}
		}()
	}

	stopWorkers := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWorkers()
	// Let deposits flow until some are acknowledged — polled, so a slow
	// disk stretches the run instead of leaving it vacuous — then "crash":
	// snapshot the directory while appends and group commits are
	// mid-flight. Acked-before-snapshot is the durability contract; the
	// snapshot IS the post-kill disk state.
	var ackedAtCrash []uint64
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		ackedAtCrash = append(ackedAtCrash[:0], acked...)
		mu.Unlock()
		if len(ackedAtCrash) >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d deposits acknowledged in 30s; the crash point would be vacuous", len(ackedAtCrash))
		}
	}
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)

	stopWorkers()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: crashDir, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	survived := storedSeqs(re, testAttrs(8))
	for _, seq := range ackedAtCrash {
		if survived[seq] == nil {
			t.Fatalf("acked deposit seq=%d lost in crash (acked %d total)", seq, len(ackedAtCrash))
		}
	}
	for i := 0; i < 8; i++ {
		got := scan(re, testAttr(i), 0, 0)
		for j := 1; j < len(got); j++ {
			if got[j-1].Seq >= got[j].Seq {
				t.Fatalf("recovered attr %d not seq-monotonic", i)
			}
		}
	}
	t.Logf("crash recovery: %d acked deposits all survived; recovered %d total", len(ackedAtCrash), re.Count())
}

// TestShardedTornTailRecovery truncates one shard's WAL segment at every
// trailing byte offset of its final record. Recovery must never error,
// must drop at most the torn record, must leave the other shards intact,
// and must leave the store appendable with a fresh (higher) sequence.
func TestShardedTornTailRecovery(t *testing.T) {
	refDir := t.TempDir()
	p, err := Open(Config{Dir: refDir, Sync: SyncNever, Options: Options{Backend: BackendSharded, Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Pin one attribute per shard so both shards hold records.
	var a0, a1 attr.Attribute
	for i := 0; ; i++ {
		a := testAttr(i)
		switch p.ShardOf(a) {
		case 0:
			if a0 == "" {
				a0 = a
			}
		case 1:
			if a1 == "" {
				a1 = a
			}
		}
		if a0 != "" && a1 != "" {
			break
		}
	}
	for i := 0; i < 4; i++ {
		for _, a := range []attr.Attribute{a0, a1} {
			if _, err := p.Append(context.Background(), testMessage(a, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fullCount := p.Count()
	shard0Count := len(scan(p, a0, 0, 0))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(refDir, "shard-000", "messages", "0000000000000000.wal")
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Tear off up to ~one record's worth of trailing bytes.
	for cut := len(full) - 1; cut >= len(full)-40 && cut >= 0; cut-- {
		dir := t.TempDir()
		copyTree(t, refDir, dir)
		if err := os.Truncate(filepath.Join(dir, "shard-000", "messages", "0000000000000000.wal"), int64(cut)); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Config{Dir: dir, Sync: SyncNever})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		got0 := len(scan(re, a0, 0, 0))
		if got0 != shard0Count && got0 != shard0Count-1 {
			t.Fatalf("cut=%d: shard-0 recovered %d records, want %d or %d", cut, got0, shard0Count, shard0Count-1)
		}
		if len(scan(re, a1, 0, 0)) != fullCount-shard0Count {
			t.Fatalf("cut=%d: untouched shard lost records", cut)
		}
		// The store stays appendable and hands out a fresh top sequence.
		seq, err := re.Append(context.Background(), testMessage(a0, 99))
		if err != nil {
			t.Fatalf("cut=%d: post-recovery append: %v", cut, err)
		}
		got := scan(re, a0, 0, 0)
		if got[len(got)-1].Seq != seq {
			t.Fatalf("cut=%d: post-recovery append not last in scan", cut)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKVCrashMidCommit is TestShardedCrashMidGroupCommit for a striped
// KV: writers Put and Delete across its parts, a Compact runs while they
// do, and at an arbitrary moment after it the directory is snapshotted
// without any shutdown. Every mutation acknowledged before the snapshot
// must hold in the reopened copy: an acked Put is there with its value,
// an acked Delete has taken its key. Keys are never reused, so nothing
// later can undo an acked mutation.
func TestKVCrashMidCommit(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(Config{Dir: dir, Sync: SyncAlways, Options: Options{Shards: 4}})
	if err != nil {
		t.Fatal(err)
	}
	kv, err := p.KV("policy")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var (
		mu                     sync.Mutex
		puts, dels, deleteSent = map[string]bool{}, map[string]bool{}, map[string]bool{}
		stop                   = make(chan struct{})
		wg                     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-%05d", w, i)
				if err := kv.Put(key, []byte("v-"+key)); err != nil {
					t.Errorf("put %s: %v", key, err)
					return
				}
				mu.Lock()
				puts[key] = true
				mu.Unlock()
				if i%3 != 2 {
					continue
				}
				prev := fmt.Sprintf("w%d-%05d", w, i-1)
				mu.Lock()
				deleteSent[prev] = true
				mu.Unlock()
				if err := kv.Delete(prev); err != nil {
					t.Errorf("delete %s: %v", prev, err)
					return
				}
				mu.Lock()
				dels[prev] = true
				mu.Unlock()
			}
		}()
	}

	stopWorkers := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWorkers()
	// waitAcked polls until at least n puts and n/4 deletes are acked: a
	// slow disk stretches the run instead of leaving it vacuous.
	waitAcked := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			mu.Lock()
			np, nd := len(puts), len(dels)
			mu.Unlock()
			if np >= n && nd >= n/4 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d puts and %d deletes acked in 30s", np, nd)
			}
		}
	}

	// Compact while mutations are in flight, let more land after it, then
	// "crash": the snapshot is the post-kill disk state.
	waitAcked(20)
	if _, err := p.Compact(0); err != nil {
		t.Fatalf("Compact under load: %v", err)
	}
	mu.Lock()
	n := len(puts)
	mu.Unlock()
	waitAcked(n + 20)
	mu.Lock()
	ackedPuts, ackedDels := maps.Clone(puts), maps.Clone(dels)
	mu.Unlock()
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)

	stopWorkers()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Config{Dir: crashDir, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	rekv, err := re.KV("policy")
	if err != nil {
		t.Fatal(err)
	}
	for key := range ackedPuts {
		if deleteSent[key] {
			continue
		}
		if v, ok := rekv.Get(key); !ok || string(v) != "v-"+key {
			t.Fatalf("acked put %s lost in crash (got %q, %v)", key, v, ok)
		}
	}
	for key := range ackedDels {
		if _, ok := rekv.Get(key); ok {
			t.Fatalf("acked delete of %s undone by crash", key)
		}
	}
	t.Logf("kv crash recovery: %d acked puts and %d acked deletes all held", len(ackedPuts), len(ackedDels))
}
