package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTestLog(t *testing.T, opts Options) *Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendAndIterate(t *testing.T) {
	l := openTestLog(t, Options{Sync: SyncNever})
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		seq, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if l.Len() != 100 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("explicit Sync of unsynced appends: %v", err)
	}
	var got [][]byte
	err := l.Iterate(func(seq uint64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("iterated %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestEmptyPayload(t *testing.T) {
	l := openTestLog(t, Options{})
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := l.Iterate(func(seq uint64, p []byte) error {
		if len(p) != 0 {
			t.Errorf("payload = %v, want empty", p)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("got %d records", n)
	}
}

func TestReopenResumesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 10 {
		t.Fatalf("reopened Len = %d, want 10", l2.Len())
	}
	seq, err := l2.Append([]byte("after reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 10 {
		t.Fatalf("resumed seq = %d, want 10", seq)
	}
	count := 0
	if err := l2.Iterate(func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 11 {
		t.Fatalf("records after reopen = %d, want 11", count)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentSize: 128, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 50)
	for i := 0; i < 20; i++ {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ids, err := segmentIDs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(ids))
	}
	// Reopen and verify all records survive rotation.
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 20 {
		t.Fatalf("Len across segments = %d, want 20", l2.Len())
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("intact-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: append garbage that looks like a
	// partial frame.
	path := filepath.Join(dir, "0000000000000000.wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 50, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 5 {
		t.Fatalf("recovered Len = %d, want 5", l2.Len())
	}
	// The torn bytes must be gone so new appends stay readable.
	if _, err := l2.Append([]byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := l2.Iterate(func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 6 {
		t.Fatalf("post-recovery records = %d, want 6", count)
	}
}

func TestCorruptPayloadRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("second-to-corrupt")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload.
	path := filepath.Join(dir, "0000000000000000.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 1 {
		t.Fatalf("recovered Len = %d, want 1 (corrupt record dropped)", l2.Len())
	}
}

func TestIterateEarlyStop(t *testing.T) {
	l := openTestLog(t, Options{})
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := fmt.Errorf("stop")
	n := 0
	err := l.Iterate(func(uint64, []byte) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times, want 3", n)
	}
}

func TestClosedLogRejectsOps(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Errorf("Append after close: %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Errorf("Sync after close: %v, want ErrClosed", err)
	}
	if err := l.Iterate(func(uint64, []byte) error { return nil }); err != ErrClosed {
		t.Errorf("Iterate after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	l := openTestLog(t, Options{})
	if _, err := l.Append(make([]byte, maxRecordLen+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open with empty Dir succeeded")
	}
}

func TestConcurrentAppends(t *testing.T) {
	l := openTestLog(t, Options{Sync: SyncNever})
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	seqs := make([][]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				seq, err := l.Append([]byte{byte(g), byte(i)})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				seqs[g] = append(seqs[g], seq)
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", l.Len(), goroutines*perG)
	}
	// Sequence numbers must be unique.
	seen := make(map[uint64]bool)
	for _, s := range seqs {
		for _, seq := range s {
			if seen[seq] {
				t.Fatalf("duplicate sequence %d", seq)
			}
			seen[seq] = true
		}
	}
}

// An undefined policy must be refused at Open: Append would otherwise
// treat it as SyncNever and acknowledge writes that were never synced.
func TestOpenRejectsUndefinedSyncPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{-1, SyncNever + 1} {
		if l, err := Open(Options{Dir: t.TempDir(), Sync: p}); err == nil {
			l.Close()
			t.Errorf("Open accepted sync policy %d", p)
		}
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o600); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("foreign file broke Open: %v", err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("works")); err != nil {
		t.Fatal(err)
	}
}
