package obsv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"
)

func TestSpanRingBasics(t *testing.T) {
	r := NewSpanRing(4)
	if len(r.Snapshot(0, 0)) != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := 1; i <= 6; i++ {
		r.Put(&SpanRecord{TraceID: uint64(i), Name: fmt.Sprintf("s%d", i)})
	}
	if len(r.Snapshot(0, 0)) != 4 {
		t.Fatalf("ring retains %d, want 4 (bounded)", len(r.Snapshot(0, 0)))
	}
	got := r.Snapshot(0, 0)
	if len(got) != 4 || got[0].TraceID != 6 || got[3].TraceID != 3 {
		t.Fatalf("snapshot = %+v", got)
	}
	if lim := r.Snapshot(2, 0); len(lim) != 2 || lim[0].TraceID != 6 {
		t.Fatalf("limited snapshot = %+v", lim)
	}
	if one := r.Snapshot(0, 5); len(one) != 1 || one[0].TraceID != 5 {
		t.Fatalf("filtered snapshot = %+v", one)
	}
}

func TestSpanRingNilSafe(t *testing.T) {
	var r *SpanRing
	r.Put(&SpanRecord{})
	if r.Snapshot(0, 0) != nil {
		t.Fatal("nil ring not inert")
	}
}

// TestSpanRingConcurrent is the -race hammer: many writers publishing
// while readers snapshot must neither race nor tear records.
func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(64)
	const writers, perWriter, readers = 8, 500, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Put(&SpanRecord{TraceID: uint64(w + 1), SpanID: uint64(i + 1), Name: "hammer"})
			}
		}(w)
	}
	done := make(chan struct{})
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, rec := range r.Snapshot(0, 0) {
					// A torn record would show a zero trace ID or a
					// mismatched name.
					if rec.TraceID == 0 || rec.Name != "hammer" {
						panic(fmt.Sprintf("torn record: %+v", rec))
					}
				}
			}
		}()
	}
	// Let the ring fill before releasing the readers.
	for len(r.Snapshot(0, 0)) < 64 {
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	if len(r.Snapshot(0, 0)) != 64 {
		t.Fatalf("ring retains %d, want 64", len(r.Snapshot(0, 0)))
	}
}

func TestTracerSpanTree(t *testing.T) {
	tr := NewTracer("mws", 128, 0, nil)
	ctx, root := tr.StartRemote(context.Background(), "Deposit", TraceContext{})
	if root.Context().TraceID == 0 {
		t.Fatal("root has no trace ID")
	}
	childCtx, child := StartSpan(ctx, "auth")
	child.SetAttr("device", "meter-7")
	_, grand := StartSpan(childCtx, "mac.verify")
	grand.End()
	child.SetErr(errors.New("boom"))
	child.End()
	root.End()

	spans := tr.Snapshot(0, root.Context().TraceID)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["auth"].ParentID != byName["Deposit"].SpanID {
		t.Fatal("auth span not parented to root")
	}
	if byName["mac.verify"].ParentID != byName["auth"].SpanID {
		t.Fatal("grandchild not parented to child")
	}
	if byName["auth"].Err != "boom" {
		t.Fatalf("child err = %q", byName["auth"].Err)
	}
	if len(byName["auth"].Attrs) != 1 || byName["auth"].Attrs[0].Value != "meter-7" {
		t.Fatalf("child attrs = %+v", byName["auth"].Attrs)
	}
	if byName["Deposit"].Service != "mws" {
		t.Fatalf("service = %q", byName["Deposit"].Service)
	}
}

func TestRemoteTraceInheritance(t *testing.T) {
	tr := NewTracer("mws", 16, 0, nil)
	remote := TraceContext{TraceID: 0xABCD, SpanID: 0x1234}
	_, sp := tr.StartRemote(context.Background(), "Deposit", remote)
	tc := sp.Context()
	if tc.TraceID != remote.TraceID {
		t.Fatalf("trace ID %x not inherited from remote %x", tc.TraceID, remote.TraceID)
	}
	rec := sp
	rec.End()
	got := tr.Snapshot(1, remote.TraceID)
	if len(got) != 1 || got[0].ParentID != remote.SpanID {
		t.Fatalf("remote parent not recorded: %+v", got)
	}
}

func TestNilTracerAndUntracedContext(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRemote(context.Background(), "x", TraceContext{TraceID: 1})
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.SetAttr("k", "v")
	sp.SetErr(errors.New("e"))
	sp.End()
	if tr.Snapshot(0, 0) != nil {
		t.Fatal("nil tracer not inert")
	}
	// An untraced context makes StartSpan a no-op.
	ctx2, child := StartSpan(ctx, "y")
	if child != nil || ctx2 != ctx {
		t.Fatal("StartSpan on untraced ctx not a no-op")
	}
	if ContextTrace(ctx).Valid() {
		t.Fatal("untraced ctx has a trace")
	}
}

func TestSlowRequestDump(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	tr := NewTracer("mws", 16, time.Nanosecond, logger)
	ctx, root := tr.StartRoot(context.Background(), "Deposit")
	_, child := StartSpan(ctx, "wal.append")
	child.SetAttr("bytes", "512")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()
	out := buf.String()
	if !bytes.Contains([]byte(out), []byte("slow request")) {
		t.Fatalf("no slow-request line in %q", out)
	}
	if !bytes.Contains([]byte(out), []byte("wal.append")) {
		t.Fatalf("stage missing from dump: %q", out)
	}
	if !bytes.Contains([]byte(out), []byte("attr.bytes=512")) {
		t.Fatalf("attr missing from dump: %q", out)
	}

	// Below threshold: no dump.
	buf.Reset()
	tr2 := NewTracer("mws", 16, time.Hour, logger)
	_, fast := tr2.StartRoot(context.Background(), "Ping")
	fast.End()
	if buf.Len() != 0 {
		t.Fatalf("fast request dumped: %q", buf.String())
	}
}

// TestGlobalCountersConcurrent hammers the process-wide counter hooks
// under -race and checks the totals add up.
func TestGlobalCountersConcurrent(t *testing.T) {
	before := CounterMap()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				AddPairing()
				AddScalarMultSecret()
				AddScalarMultPublic()
				GIDCacheHit()
				GIDCacheMiss()
				GIDCacheEvict()
				AddStoreReadBytes(3)
				AddStoreWriteBytes(5)
				AddConnInBytes(7)
				AddConnOutBytes(11)
				ObserveWALAppend(time.Microsecond)
				ObserveWALFsync(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	after := CounterMap()
	const n = goroutines * perG
	for name, delta := range map[string]uint64{
		"pairing_ops":         n,
		"scalar_mult_secret":  n,
		"scalar_mult_public":  n,
		"gid_cache_hits":      n,
		"gid_cache_misses":    n,
		"gid_cache_evictions": n,
		"store_read_bytes":    3 * n,
		"store_write_bytes":   5 * n,
		"conn_in_bytes":       7 * n,
		"conn_out_bytes":      11 * n,
		"wal_appends":         n,
		"wal_fsyncs":          n,
	} {
		if got := after[name] - before[name]; got != delta {
			t.Errorf("%s delta = %d, want %d", name, got, delta)
		}
	}
	// Negative byte adds are ignored.
	AddStoreReadBytes(-1)
	if CounterMap()["store_read_bytes"] != after["store_read_bytes"] {
		t.Error("negative add changed a counter")
	}
	// Gauges exist and are rendered in sorted sample form.
	gauges := Collect(NewRegistry()).Gauges
	if len(gauges) != 4 || gauges[0].Name != "wal_append_p50_ns" {
		t.Fatalf("gauges = %+v", gauges)
	}
	if gauges[3].Name != "wal_fsync_p99_ns" || gauges[3].Value <= 0 {
		t.Fatalf("fsync p99 gauge = %+v", gauges[3])
	}
}

// TestLateChildAfterRootEnd: a child finishing after its root must still
// land in the ring but not corrupt the (already dumped) root tree.
func TestLateChildAfterRootEnd(t *testing.T) {
	tr := NewTracer("mws", 16, 0, nil)
	ctx, root := tr.StartRoot(context.Background(), "Deposit")
	_, child := StartSpan(ctx, "laggard")
	root.End()
	child.End()
	spans := tr.Snapshot(0, root.Context().TraceID)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (late child still ringed)", len(spans))
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer("mws", 16, 0, nil)
	_, root := tr.StartRoot(context.Background(), "Ping")
	root.End()
	root.End()
	root.SetAttr("late", "ignored")
	if got := tr.Snapshot(0, root.Context().TraceID); len(got) != 1 || len(got[0].Attrs) != 0 {
		t.Fatalf("double End or post-End mutation leaked: %+v", got)
	}
}

// BenchmarkGlobalCounter prices the hot-path hooks: each is one atomic
// add on a series resolved at init (the WAL hooks add a reservoir
// observe), with no map lookup and no lock.
func BenchmarkGlobalCounter(b *testing.B) {
	b.Run("AddPairing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AddPairing()
		}
	})
	b.Run("AddStoreWriteBytes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AddStoreWriteBytes(128)
		}
	})
	b.Run("ObserveWALAppend", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ObserveWALAppend(time.Microsecond)
		}
	})
	b.Run("AddPairingParallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				AddPairing()
			}
		})
	})
}
