package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mwskit/internal/macauth"
	"mwskit/internal/obsv"
	"mwskit/internal/wal"
	"mwskit/internal/wire"
)

// TestReplayWindowAcrossRestart pins DESIGN.md §11 "What a restart forgets":
// the replay guard is memory-only, so a deposit frame replayed after the
// MWS restarts meets an empty guard and is stored a second time — until
// its timestamp T leaves the freshness window, which bounds the exposure
// whatever the guard remembers. Within one process life the same frame is
// refused as a replay.
func TestReplayWindowAcrossRestart(t *testing.T) {
	const window = time.Minute
	var skew atomic.Int64 // nanoseconds the servers' clock runs ahead
	cfg := DeploymentConfig{
		Dir: t.TempDir(), Preset: "test", Sync: wal.SyncNever, FreshnessWindow: window,
		Now: func() time.Time { return time.Now().Add(time.Duration(skew.Load())) },
	}
	start := func() (*Deployment, *wire.Client) {
		t.Helper()
		dep, err := NewDeployment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dep.Close() })
		if err := dep.Start(); err != nil {
			t.Fatal(err)
		}
		conn, err := dep.DialMWS()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return dep, conn
	}
	// send replays the one frame; guardEntries reads the deposit guard's
	// size the way an operator would, from the exported gauge.
	var frame *wire.DepositRequest
	send := func(conn *wire.Client) (seq uint64, refusal string) {
		t.Helper()
		resp, err := wire.Call(context.Background(), conn, wire.OpDeposit, frame)
		var em *wire.ErrorMsg
		switch {
		case err == nil:
			return resp.Seq, ""
		case errors.As(err, &em) && em.Code == wire.CodeReplay:
			return 0, em.Message
		}
		t.Fatal(err)
		return 0, ""
	}
	guardEntries := func(dep *Deployment) int64 {
		t.Helper()
		for _, g := range dep.MWS.StatsRegistry().Export().Gauges {
			if g.Name == "replay_guard_entries" && g.Labels[0] == obsv.L("guard", "deposit") {
				return g.Value
			}
		}
		t.Fatal("no replay_guard_entries{guard=deposit} gauge")
		return 0
	}

	dep, conn := start()
	sd := newTestDevice(t, dep, "meter")
	var err error
	if frame, err = sd.PrepareDeposit("A1", []byte("reading")); err != nil {
		t.Fatal(err)
	}
	first, refusal := send(conn)
	if refusal != "" {
		t.Fatalf("first deposit refused: %s", refusal)
	}
	if _, refusal := send(conn); refusal != macauth.ErrReplay.Error() {
		t.Fatalf("replay in the same process life: refusal %q, want ErrReplay", refusal)
	}
	if n := guardEntries(dep); n != 1 {
		t.Fatalf("guard holds %d entries, want 1", n)
	}
	conn.Close()
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}

	dep, conn = start()
	if n := guardEntries(dep); n != 0 {
		t.Fatalf("restarted guard holds %d entries, want 0", n)
	}
	second, refusal := send(conn)
	if refusal != "" || second == first {
		t.Fatalf("replay after restart, T still fresh: seq %d (first %d), refusal %q; want a second stored copy", second, first, refusal)
	}
	if _, refusal := send(conn); refusal != macauth.ErrReplay.Error() {
		t.Fatalf("second replay after restart: refusal %q, want ErrReplay", refusal)
	}
	conn.Close()
	if err := dep.Close(); err != nil {
		t.Fatal(err)
	}

	// Once T is outside the window no guard state matters.
	skew.Store(int64(window + 2*time.Second))
	_, conn = start()
	if _, refusal := send(conn); refusal != macauth.ErrStale.Error() {
		t.Fatalf("replay after restart, T stale: refusal %q, want ErrStale", refusal)
	}
}
