package core

import (
	"bytes"
	"context"
	"log/slog"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"mwskit/internal/obsv"
	"mwskit/internal/wal"
	"mwskit/internal/wire"
)

// TestTracePropagationOverTCP is the end-to-end stitching test: a client
// process generates a trace ID and deposits; the server — reached only
// over a real TCP connection, exactly as a separate mwsd process would be
// — must record its stage spans under the client's trace ID, queryable
// back through the TTrace introspection op.
func TestTracePropagationOverTCP(t *testing.T) {
	var slowBuf bytes.Buffer
	slowLog := slog.New(slog.NewTextHandler(&slowBuf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	// 1ns threshold: every request is "slow", so the deposit's span tree
	// must show up in the dump.
	mwsTracer := obsv.NewTracer("mws", 256, time.Nanosecond, slowLog)

	dep, err := NewDeployment(DeploymentConfig{
		Dir:       t.TempDir(),
		Preset:    "test",
		Sync:      wal.SyncNever,
		MWSTracer: mwsTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	if err := dep.Start(); err != nil {
		t.Fatal(err)
	}
	mwsConn, _ := dialBoth(t, dep)
	sd := newTestDevice(t, dep, "meter-trace")

	// Client side: own tracer, own root span — the "other process".
	clientTracer := obsv.NewTracer("smartdev", 64, 0, nil)
	ctx, root := clientTracer.StartRoot(context.Background(), "deposit")
	if _, err := sd.DepositContext(ctx, mwsConn, "ELECTRIC-APTCOMPLEX-SV-CA", []byte("reading=1")); err != nil {
		t.Fatal(err)
	}
	root.End()
	traceID := root.Context().TraceID

	// Query the server's ring back over the same wire connection.
	tr, err := wire.Call(context.Background(), mwsConn, wire.OpTrace, &wire.TraceRequest{TraceID: traceID})
	if err != nil {
		t.Fatal(err)
	}

	// The server-side tree alone must show the named pipeline stages,
	// each with a measured (non-zero) duration, all under the client's
	// trace ID.
	stages := map[string]time.Duration{}
	for _, s := range tr.Spans {
		if s.TraceID != traceID {
			t.Fatalf("span %q carries trace %d, want %d", s.Name, s.TraceID, traceID)
		}
		if s.Service != "mws" {
			t.Fatalf("span %q carries service %q, want mws", s.Name, s.Service)
		}
		stages[s.Name] = s.Duration
	}
	for _, want := range []string{"Deposit", "auth", "replay", "store.write", "wal.append"} {
		dur, found := stages[want]
		if !found {
			t.Errorf("stage %q missing from TTrace reply (got %v)", want, stages)
		} else if dur <= 0 {
			t.Errorf("stage %q has no measured duration", want)
		}
	}

	// Stitching: the server's request root must be parented to the
	// client's rpc.deposit span, not float free.
	var rpcSpanID uint64
	for _, s := range clientTracer.Snapshot(0, traceID) {
		if s.Name == "rpc.deposit" {
			rpcSpanID = s.SpanID
		}
	}
	if rpcSpanID == 0 {
		t.Fatal("client tracer recorded no rpc.deposit span")
	}
	var serverRootParent uint64
	for _, s := range tr.Spans {
		if s.Name == "Deposit" {
			serverRootParent = s.ParentID
		}
	}
	if serverRootParent != rpcSpanID {
		t.Errorf("server root parent = %d, want client rpc.deposit span %d", serverRootParent, rpcSpanID)
	}

	// The slow-request dump (threshold 1ns) must contain the same tree.
	out := slowBuf.String()
	for _, want := range []string{"slow request", "store.write", "wal.append"} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-request dump missing %q:\n%s", want, out)
		}
	}
}

// TestTracedSearchKeepsItsTrace follows one client trace through a keyword
// search — bootstrap retrieve, PKG trapdoor, filtered retrieve, PKG extract
// — and requires every hop to land under the client's trace ID: the MWS's
// peks.filter stage and the PKG's Trapdoor root are the two that used to
// float free because their requests carried no trace.
func TestTracedSearchKeepsItsTrace(t *testing.T) {
	mwsTracer := obsv.NewTracer("mws", 256, 0, nil)
	pkgTracer := obsv.NewTracer("pkg", 256, 0, nil)
	dep, err := NewDeployment(DeploymentConfig{
		Dir: t.TempDir(), Preset: "test", Sync: wal.SyncNever, MWSTracer: mwsTracer, PKGTracer: pkgTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	if err := dep.Start(); err != nil {
		t.Fatal(err)
	}
	mwsConn, pkgConn := dialBoth(t, dep)
	sd := newTestDevice(t, dep, "meter-search")
	rc, err := dep.EnrollClient("rc", []byte("pw"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Grant("rc", "A1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.DepositTagged(mwsConn, "A1", []byte("power outage at feeder 7"), []string{"outage"}); err != nil {
		t.Fatal(err)
	}

	clientTracer := obsv.NewTracer("rcclient", 64, 0, nil)
	ctx, root := clientTracer.StartRoot(context.Background(), "search")
	boot, err := rc.RetrieveContext(ctx, mwsConn, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	trapdoor, err := rc.FetchTrapdoorContext(ctx, pkgConn, boot, "outage")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := rc.SearchContext(ctx, mwsConn, trapdoor, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rc.FetchKeysContext(ctx, pkgConn, hits); err != nil {
		t.Fatal(err)
	}
	root.End()
	traceID := root.Context().TraceID

	clientSpans := map[string]uint64{}
	for _, s := range clientTracer.Snapshot(0, traceID) {
		clientSpans[s.Name] = s.SpanID
	}
	for _, hop := range []struct {
		tracer        *obsv.Tracer
		span, rpcSpan string // a server span, and the client span its request root must parent to
		isRoot        bool
	}{
		{mwsTracer, "peks.filter", "", false},
		{pkgTracer, "Trapdoor", "rpc.trapdoor", true},
		{pkgTracer, "Extract", "rpc.extract", true},
	} {
		var found *obsv.SpanRecord
		for _, s := range hop.tracer.Snapshot(0, traceID) {
			if s.Name == hop.span {
				found = &s
			}
		}
		if found == nil {
			t.Errorf("no %s span under the client's trace %d", hop.span, traceID)
		} else if hop.span == "peks.filter" && !slices.ContainsFunc(found.Attrs, func(a obsv.Label) bool {
			return a.Key == "lanes" && a.Value == strconv.FormatBool(dep.Params().Sys.Curve.F.HasLanes())
		}) {
			t.Errorf("peks.filter span lacks the lane verdict: %+v", found.Attrs)
		} else if hop.isRoot && (clientSpans[hop.rpcSpan] == 0 || found.ParentID != clientSpans[hop.rpcSpan]) {
			t.Errorf("%s root parent = %d, want the client's %s span %d", hop.span, found.ParentID, hop.rpcSpan, clientSpans[hop.rpcSpan])
		}
	}
	// Both retrieves — the bootstrap and the search — are Retrieve roots
	// under the trace.
	retrieves := 0
	for _, s := range mwsTracer.Snapshot(0, traceID) {
		if s.Name == "Retrieve" {
			retrieves++
		}
	}
	if retrieves != 2 {
		t.Errorf("%d Retrieve roots under the client's trace, want 2", retrieves)
	}
}

// TestUntracedClientUnaffected pins the other half: a client with no
// trace in its context against a tracer-enabled server deposits fine and
// leaves no trace-stitched spans (the server may still record its own
// roots).
func TestUntracedClientUnaffected(t *testing.T) {
	mwsTracer := obsv.NewTracer("mws", 64, 0, nil)
	dep, err := NewDeployment(DeploymentConfig{
		Dir:       t.TempDir(),
		Preset:    "test",
		Sync:      wal.SyncNever,
		MWSTracer: mwsTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	if err := dep.Start(); err != nil {
		t.Fatal(err)
	}
	mwsConn, _ := dialBoth(t, dep)
	sd := newTestDevice(t, dep, "meter-v1")
	if _, err := sd.Deposit(mwsConn, "ELECTRIC-APTCOMPLEX-SV-CA", []byte("reading=2")); err != nil {
		t.Fatal(err)
	}
	for _, s := range mwsTracer.Snapshot(0, 0) {
		if s.Name == "Deposit" && s.ParentID != 0 {
			t.Errorf("untraced deposit span claims a remote parent: %+v", s)
		}
	}
}
