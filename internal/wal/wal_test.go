package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"mwskit/internal/obsv"
)

// Len returns the number of intact records in the log.
func (l *Log) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

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

func walFsyncs() uint64 { return obsv.CounterMap()["wal_fsyncs"] }

// TestIterateWithoutSync: Iterate returns records that were appended and
// never synced, and runs no fsync of its own to see them.
func TestIterateWithoutSync(t *testing.T) {
	l := openTestLog(t, Options{Sync: SyncNever})
	for i := 0; i < 50; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("unsynced-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := walFsyncs()
	n := 0
	if err := l.Iterate(func(seq uint64, p []byte) error {
		if want := fmt.Sprintf("unsynced-%02d", seq); string(p) != want {
			t.Fatalf("record %d = %q, want %q", seq, p, want)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("Iterate returned %d of 50 unsynced records", n)
	}
	if got := walFsyncs() - before; got != 0 {
		t.Fatalf("Iterate ran %d fsyncs, want 0", got)
	}
}

// TestCommitSyncPolicy: a sequential Append+Commit costs exactly one
// fsync under SyncAlways and none under SyncNever, and Append alone
// never syncs.
func TestCommitSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		sync SyncPolicy
		want uint64
	}{{SyncAlways, 1}, {SyncNever, 0}} {
		l := openTestLog(t, Options{Sync: tc.sync})
		before := walFsyncs()
		for i := 0; i < 10; i++ {
			if _, err := l.Append([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if got := walFsyncs() - before; got != 0 {
			t.Fatalf("policy %d: 10 Appends ran %d fsyncs, want 0", tc.sync, got)
		}
		before = walFsyncs()
		for i := 0; i < 10; i++ {
			if _, err := l.Append([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if got := walFsyncs() - before; got != 10*tc.want || l.Syncs() != 10*tc.want {
			t.Fatalf("policy %d: 10 commits cost %d fsyncs (Syncs %d), want %d", tc.sync, got, l.Syncs(), 10*tc.want)
		}
	}
}

// TestCommitNamesNewSegments: a segment's name is durable before a
// record in it is acked. Open on an empty directory and each rotation
// create a segment, and the commit that follows fsyncs the directory once
// for it, or Close does if no Sync came first; a commit within a
// segment, or into a segment that a reopen found, fsyncs no directory.
func TestCommitNamesNewSegments(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentSize: 3 * (headerLen + 4), Sync: SyncAlways}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(l *Log, i int) {
		t.Helper()
		if _, err := l.Append([]byte(fmt.Sprintf("r%03d", i))); err != nil {
			t.Fatal(err)
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 9 { // three records a segment: rotations before records 3 and 6
		commit(l, i)
		if got, want := l.dirSyncs.Load(), uint64(1+i/3); got != want {
			t.Fatalf("after commit %d: %d directory fsyncs, want %d, one per created segment", i, got, want)
		}
	}
	// A rotation that Close, not a Sync, answers: Close names the fourth
	// segment before a Commit can report its fsync.
	if _, err := l.Append([]byte("r009")); err != nil {
		t.Fatal(err)
	}
	if ids, _ := segmentIDs(dir); len(ids) != 4 {
		t.Fatalf("%d segments, want 4", len(ids))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := l.dirSyncs.Load(); got != 4 {
		t.Fatalf("after a rotation and Close: %d directory fsyncs, want 4", got)
	}
	opts.SegmentSize = 1 << 20
	re := openTestLog(t, opts)
	for i := 10; i < 13; i++ {
		commit(re, i)
	}
	if got := re.dirSyncs.Load(); got != 0 {
		t.Fatalf("commits into a reopened segment ran %d directory fsyncs, want 0", got)
	}
}

// TestCommitAfterClose: a record appended before Close is covered by
// Close's final fsync, so a Commit that only gets to run afterwards
// reports that fsync's result rather than ErrClosed.
func TestCommitAfterClose(t *testing.T) {
	l := openTestLog(t, Options{Sync: SyncAlways})
	if _, err := l.Append([]byte("before close")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit after a clean Close = %v, want nil", err)
	}
}

// TestCommitRacesRotationAndClose: committers run against a log that
// rotates on every record and is closed under them. Every record whose
// Append succeeded commits without error: a sync that finds its segment
// shut by rotation or Close was covered by that segment's own fsync.
func TestCommitRacesRotationAndClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentSize: 1, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var acked [8]int
	for g := range acked {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("g%d-%03d", g, i))); err == ErrClosed {
					return
				} else if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := l.Commit(); err != nil {
					t.Errorf("commit of an appended record: %v", err)
					return
				}
				acked[g]++
			}
		}()
	}
	for l.Len() < 200 && !t.Failed() {
		runtime.Gosched()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	total := 0
	for _, n := range acked {
		total += n
	}
	if re.Len() < uint64(total) {
		t.Fatalf("reopened log holds %d records, fewer than the %d committed", re.Len(), total)
	}
}

func iterateAll(t *testing.T, l *Log) []string {
	t.Helper()
	var out []string
	if err := l.Iterate(func(_ uint64, p []byte) error {
		out = append(out, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRewrite: the log's records become exactly the rewritten ones, the
// segments that held the old ones are gone, and appends that follow land
// after them, across a reopen too. Rewrite costs two fsyncs: the old
// segment's unsynced tail, then the fresh segment. Without the first, a
// Commit that syncs only the fresh segment could ack a record that a
// crash then tears off the old tail, and replay would return a key the
// record deleted.
func TestRewrite(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentSize: 64, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("old-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before, syncs := walFsyncs(), l.Syncs()
	if err := l.Rewrite([][]byte{[]byte("new-a"), []byte("new-b")}); err != nil {
		t.Fatal(err)
	}
	if got := walFsyncs() - before; got != 2 || l.Syncs()-syncs != 2 {
		t.Fatalf("Rewrite of unsynced appends ran %d fsyncs (Syncs +%d), want 2: the old segment, then the new", got, l.Syncs()-syncs)
	}
	if _, err := l.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	want := "[new-a new-b after]"
	if got := fmt.Sprint(iterateAll(t, l)); got != want {
		t.Fatalf("after Rewrite: %s, want %s", got, want)
	}
	if ids, _ := segmentIDs(dir); len(ids) != 1 {
		t.Fatalf("%d segments after Rewrite, want 1", len(ids))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Rewrite(nil); err != ErrClosed {
		t.Fatalf("Rewrite after Close = %v, want ErrClosed", err)
	}
	re := openTestLog(t, Options{Dir: dir})
	if got := fmt.Sprint(iterateAll(t, re)); got != want {
		t.Fatalf("reopened: %s, want %s", got, want)
	}
}
