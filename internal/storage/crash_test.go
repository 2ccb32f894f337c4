package storage

import (
	"context"
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

	// Let deposits flow, then "crash": snapshot the directory while
	// appends and group commits are mid-flight. Acked-before-snapshot is
	// the durability contract; the snapshot IS the post-kill disk state.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	ackedAtCrash := append([]uint64(nil), acked...)
	mu.Unlock()
	crashDir := t.TempDir()
	copyTree(t, dir, crashDir)

	close(stop)
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ackedAtCrash) == 0 {
		t.Fatal("no deposits acknowledged before the crash point; test is vacuous")
	}

	re, err := Open(Config{Dir: crashDir, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer re.Close()
	for _, seq := range ackedAtCrash {
		if _, ok := re.Get(seq); !ok {
			t.Fatalf("acked deposit seq=%d lost in crash (acked %d total)", seq, len(ackedAtCrash))
		}
	}
	for i := 0; i < 8; i++ {
		scan := re.ScanAttribute(testAttr(i), 0, 0)
		for j := 1; j < len(scan); j++ {
			if scan[j-1].Seq >= scan[j].Seq {
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
	shard0Count := p.CountAttribute(a0)
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
		got0 := re.CountAttribute(a0)
		if got0 != shard0Count && got0 != shard0Count-1 {
			t.Fatalf("cut=%d: shard-0 recovered %d records, want %d or %d", cut, got0, shard0Count, shard0Count-1)
		}
		if re.CountAttribute(a1) != fullCount-shard0Count {
			t.Fatalf("cut=%d: untouched shard lost records", cut)
		}
		// The store stays appendable and hands out a fresh top sequence.
		seq, err := re.Append(context.Background(), testMessage(a0, 99))
		if err != nil {
			t.Fatalf("cut=%d: post-recovery append: %v", cut, err)
		}
		scan := re.ScanAttribute(a0, 0, 0)
		if scan[len(scan)-1].Seq != seq {
			t.Fatalf("cut=%d: post-recovery append not last in scan", cut)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
