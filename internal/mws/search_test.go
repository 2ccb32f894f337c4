package mws

import (
	"bytes"
	"context"
	"crypto/rand"
	"log/slog"
	"testing"
	"time"

	"mwskit/internal/bfibe"
	"mwskit/internal/device"
	"mwskit/internal/macauth"
	"mwskit/internal/pairing"
	"mwskit/internal/peks"
	"mwskit/internal/wal"
	"mwskit/internal/wire"
)

// TestSearchCountsUndecodableTags: a stored tag that does not decode is
// skipped, not fatal — and no longer invisible: the registry says how many
// tags a search tested and how many it could not decode, which is what an
// operator needs when a search matched nothing. The tags themselves stay
// out of the logs.
func TestSearchCountsUndecodableTags(t *testing.T) {
	params, master, err := bfibe.Setup(pairing.ParamsTest.MustSystem(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	clock := &fakeClock{t: time.Unix(1278000000, 0)}
	var logs bytes.Buffer
	s, err := New(Config{
		Dir:       t.TempDir(),
		MWSPKGKey: make([]byte, 32),
		Sync:      wal.SyncNever,
		Now:       clock.Now,
		IBEParams: params,
		Logger:    slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	macKey, err := s.RegisterDevice("meter-1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.New("meter-1", macKey, params, device.WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	login := enrollRC(t, s, clock, "c-services", []byte("pw"))
	if _, err := s.Grant("c-services", "ELECTRIC-X"); err != nil {
		t.Fatal(err)
	}

	garbage := []byte("GARBAGE-TAG-BYTES")
	var seqs []uint64
	for _, m := range []struct {
		keywords []string
		garbage  bool
	}{
		{keywords: []string{"outage"}},
		{keywords: []string{"outage"}, garbage: true}, // undecodable tag ahead of a matching one
		{garbage: true},
		{keywords: []string{"reading"}},
	} {
		req, err := d.PrepareTaggedDeposit("ELECTRIC-X", []byte("m"), m.keywords)
		if err != nil {
			t.Fatal(err)
		}
		if m.garbage {
			req.Tags = append([][]byte{garbage}, req.Tags...)
			req.MAC = macauth.Compute(macKey, req.MACParts()...)
		}
		seq, err := s.Deposit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
		clock.Advance(time.Second)
	}

	td, err := peks.NewTrapdoor(params, master, "outage")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Retrieve(context.Background(), &wire.RetrieveRequest{
		RC: "c-services", AuthBlob: login(), Trapdoor: peks.MarshalTrapdoor(params, td),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 2 || resp.Items[0].Seq != seqs[0] || resp.Items[1].Seq != seqs[1] {
		t.Fatalf("search returned %d items, want the two outage messages", len(resp.Items))
	}
	for name, want := range map[string]uint64{
		"peks_searches":         1,
		"peks_tags_tested":      3,
		"peks_tags_undecodable": 2,
	} {
		if got := s.StatsRegistry().Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if bytes.Contains(logs.Bytes(), garbage) {
		t.Error("tag bytes reached the log")
	}

	// A malformed trapdoor is refused before any tag is touched.
	clock.Advance(time.Second)
	_, err = s.Retrieve(context.Background(), &wire.RetrieveRequest{
		RC: "c-services", AuthBlob: login(), Trapdoor: []byte{4, 1, 2, 3},
	})
	if wireCode(t, err) != wire.CodeBadRequest {
		t.Fatalf("malformed trapdoor: %v", err)
	}
	if got := s.StatsRegistry().Counter("peks_searches").Value(); got != 1 {
		t.Errorf("a refused trapdoor counted as a search (%d)", got)
	}
}
