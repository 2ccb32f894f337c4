package mws

import (
	"bytes"
	"context"
	"crypto/rand"
	"log/slog"
	"runtime"
	"slices"
	"testing"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/device"
	"mwskit/internal/ec"
	"mwskit/internal/kdf"
	"mwskit/internal/macauth"
	"mwskit/internal/obsv"
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
// searchEnv is a warehouse with keyword search enabled, one MAC device
// and one client granted ELECTRIC-X.
type searchEnv struct {
	s      *Service
	params *bfibe.Params
	master *bfibe.MasterKey
	clock  *fakeClock
	login  func() []byte
	logs   bytes.Buffer
	dev    *device.Device
	macKey []byte
}

var garbageTag = []byte("GARBAGE-TAG-BYTES")

func newSearchEnv(t *testing.T) *searchEnv {
	t.Helper()
	params, master, err := bfibe.Setup(pairing.ParamsTest.MustSystem(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	e := &searchEnv{params: params, master: master, clock: &fakeClock{t: time.Unix(1278000000, 0)}}
	e.s, err = New(Config{
		Dir:       t.TempDir(),
		MWSPKGKey: make([]byte, 32),
		Sync:      wal.SyncNever,
		Now:       e.clock.Now,
		IBEParams: params,
		Logger:    slog.New(slog.NewTextHandler(&e.logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.s.Close() })
	if e.macKey, err = e.s.RegisterDevice("meter-1"); err != nil {
		t.Fatal(err)
	}
	if e.dev, err = device.New("meter-1", e.macKey, params, device.WithClock(e.clock.Now)); err != nil {
		t.Fatal(err)
	}
	e.login = enrollRC(t, e.s, e.clock, "c-services", []byte("pw"))
	if _, err := e.s.Grant("c-services", "ELECTRIC-X"); err != nil {
		t.Fatal(err)
	}
	return e
}

// deposit stores one message tagged with keywords, an undecodable tag
// ahead of them if garbage is set, and returns its sequence number.
func (e *searchEnv) deposit(t *testing.T, keywords []string, garbage bool) uint64 {
	t.Helper()
	req, err := e.dev.PrepareTaggedDepositContext(context.Background(), "ELECTRIC-X", []byte("m"), keywords)
	if err != nil {
		t.Fatal(err)
	}
	if garbage {
		req.Tags = append([][]byte{garbageTag}, req.Tags...)
		req.MAC = macauth.Compute(e.macKey, req.MACParts()...)
	}
	seq, err := e.s.Deposit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(time.Second)
	return seq
}

func (e *searchEnv) trapdoor(t *testing.T, keyword string) *peks.Trapdoor {
	t.Helper()
	td, err := peks.NewTrapdoor(e.params, e.master, keyword)
	if err != nil {
		t.Fatal(err)
	}
	return td
}

func (e *searchEnv) search(ctx context.Context, td *peks.Trapdoor, limit uint32) (*wire.RetrieveResponse, error) {
	return e.s.Retrieve(ctx, &wire.RetrieveRequest{
		RC: "c-services", AuthBlob: e.login(), Limit: limit, Trapdoor: peks.MarshalTrapdoor(e.params, td),
	})
}

func TestSearchCountsUndecodableTags(t *testing.T) {
	e := newSearchEnv(t)
	s := e.s
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
		seqs = append(seqs, e.deposit(t, m.keywords, m.garbage))
	}

	resp, err := e.search(context.Background(), e.trapdoor(t, "outage"), 0)
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
	if bytes.Contains(e.logs.Bytes(), garbageTag) {
		t.Error("tag bytes reached the log")
	}

	// A malformed trapdoor is refused before any tag is touched.
	e.clock.Advance(time.Second)
	_, err = s.Retrieve(context.Background(), &wire.RetrieveRequest{
		RC: "c-services", AuthBlob: e.login(), Trapdoor: []byte{4, 1, 2, 3},
	})
	if wireCode(t, err) != wire.CodeBadRequest {
		t.Fatalf("malformed trapdoor: %v", err)
	}
	if got := s.StatsRegistry().Counter("peks_searches").Value(); got != 1 {
		t.Errorf("a refused trapdoor counted as a search (%d)", got)
	}
}

// tagCounts is what a search's filter adds to the two tag counters.
type tagCounts struct{ tested, undecodable uint64 }

func (e *searchEnv) tagCounts() tagCounts {
	return tagCounts{
		tested:      e.s.StatsRegistry().Counter("peks_tags_tested").Value(),
		undecodable: e.s.StatsRegistry().Counter("peks_tags_undecodable").Value(),
	}
}

// sequentialFilter is the filter's definition, one message after the
// other: the matching seqs in order, the tag counts the loop has reached
// at each match, and its counts over the whole corpus.
func (e *searchEnv) sequentialFilter(td *peks.Trapdoor) (matches []uint64, atMatch []tagCounts, total tagCounts) {
	for _, m := range e.s.Store().ScanAttributes(attr.Set{"ELECTRIC-X"}, 0, 0) {
		for _, raw := range m.Tags {
			tag, err := peks.UnmarshalTag(e.params, raw)
			if err != nil {
				total.undecodable++
				continue
			}
			total.tested++
			if peks.Test(e.params, tag, td) {
				matches = append(matches, m.Seq)
				atMatch = append(atMatch, total)
				break
			}
		}
	}
	return matches, atMatch, total
}

// TestSearchLimitReturnsFirstMatchesInSeqOrder pins a limited search
// against the sequential filter: the result is the first Limit matches
// in sequence order whatever the number of workers. With one worker the
// tag counters are the loop's to the digit; with several, an unlimited
// search's still are (every message is tested once), and a limited one
// may also test messages other workers claimed before the limit was
// reached. How many is the schedule's choice — about GOMAXPROCS − 1 when
// the workers keep pace, more when one is descheduled mid-message and the
// others run ahead — so only the range is held.
func TestSearchLimitReturnsFirstMatchesInSeqOrder(t *testing.T) {
	e := newSearchEnv(t)
	const n = 24
	for i := 0; i < n; i++ {
		keywords := [][]string{{"outage", "reading"}, {"reading"}, {"reading", "outage"}}[i%3]
		e.deposit(t, keywords, i%4 == 1)
	}
	td := e.trapdoor(t, "outage")
	want, atMatch, total := e.sequentialFilter(td)
	if len(want) != 16 {
		t.Fatalf("corpus has %d matches, want 16", len(want))
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for limit := 0; limit <= len(want); limit++ {
			before := e.tagCounts()
			resp, err := e.search(context.Background(), td, uint32(limit))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]uint64, len(resp.Items))
			for i, it := range resp.Items {
				got[i] = it.Seq
			}
			wantSeqs, seq := want, total
			if limit > 0 {
				wantSeqs, seq = want[:limit], atMatch[limit-1]
			}
			if !slices.Equal(got, wantSeqs) {
				t.Fatalf("GOMAXPROCS %d, Limit %d: seqs %v, want %v", procs, limit, got, wantSeqs)
			}
			now := e.tagCounts()
			c := tagCounts{now.tested - before.tested, now.undecodable - before.undecodable}
			if procs == 1 || limit == 0 {
				if c != seq {
					t.Errorf("GOMAXPROCS %d, Limit %d: counted %+v, the loop counts %+v", procs, limit, c, seq)
				}
			} else if c.tested < seq.tested || c.tested > total.tested ||
				c.undecodable < seq.undecodable || c.undecodable > total.undecodable {
				t.Errorf("GOMAXPROCS %d, Limit %d: counted %+v, want between the loop's %+v and the corpus's %+v",
					procs, limit, c, seq, total)
			}
			e.clock.Advance(time.Second)
		}
	}

	// A deadline that passes once the first tag has been tested ends the
	// search with CodeTimeout, the rest of the corpus untested.
	runtime.GOMAXPROCS(2)
	before := e.tagCounts()
	ctx := expiringCtx{Context: context.Background(), expired: func() bool { return e.tagCounts().tested > before.tested }}
	resp, err := e.search(ctx, td, 0)
	if resp != nil || wireCode(t, err) != wire.CodeTimeout {
		t.Fatalf("resp %v, err %v: want CodeTimeout", resp, err)
	}
	if tested := e.tagCounts().tested - before.tested; tested >= total.tested {
		t.Fatalf("%d tags tested after the deadline passed, the whole corpus has %d", tested, total.tested)
	}
}

// expiringCtx reports its deadline as passed once expired() holds: a
// request whose budget runs out at a chosen point of the filter.
type expiringCtx struct {
	context.Context
	expired func() bool
}

func (c expiringCtx) Err() error {
	if c.expired() {
		return context.DeadlineExceeded
	}
	return nil
}

// TestSearchOpCounts pins a search's arithmetic to the digit: over N
// decodable tags it costs no public scalar multiplication and N
// pairings. The trapdoor, a first pairing argument, is order-checked by
// the walk that builds its lines (peks.NewTester); the stored tags'
// points, only ever second arguments, are curve-checked without a
// multiplication by q.
func TestSearchOpCounts(t *testing.T) {
	e := newSearchEnv(t)
	tags := 0
	for i := 0; i < 12; i++ {
		keywords := [][]string{{"reading"}, {"reading", "billing"}}[i%2]
		e.deposit(t, keywords, false)
		tags += len(keywords)
	}
	td := e.trapdoor(t, "outage") // matches nothing, so every tag is tested
	before := obsv.CounterMap()
	resp, err := e.search(context.Background(), td, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := obsv.CounterMap()
	if len(resp.Items) != 0 {
		t.Fatalf("search matched %d messages, want none", len(resp.Items))
	}
	mults := after["scalar_mult_public"] - before["scalar_mult_public"]
	pairings := after["pairing_ops"] - before["pairing_ops"]
	if mults != 0 || pairings != uint64(tags) {
		t.Errorf("search over %d tags: %d public scalar mults and %d pairings; want 0 and %d", tags, mults, pairings, tags)
	}
}

// torsionPoint returns q·S for the first on-curve S with x = 1, 2, …
// outside G1: a finite point of order dividing h, with no G1 part.
func torsionPoint(t *testing.T, c *ec.Curve) ec.Point {
	t.Helper()
	tors := c.Infinity()
	for x := int64(1); tors.Inf; x++ {
		xe := c.F.FromInt64(x)
		if y, ok := xe.Square().Mul(xe).Add(xe).Sqrt(); ok {
			s, err := c.NewPoint(xe, y)
			if err != nil {
				t.Fatal(err)
			}
			tors = c.ScalarMult(s, c.Q)
		}
	}
	return tors
}

// TestSearchRefusesTrapdoorOutsideG1: a trapdoor that decodes — a
// canonical point on the curve — but lies outside G1 (the honest
// trapdoor plus q·S, or (0, 0)) is refused as malformed, like one that
// does not decode, before any tag is paired, and counts as no search.
func TestSearchRefusesTrapdoorOutsideG1(t *testing.T) {
	e := newSearchEnv(t)
	e.deposit(t, []string{"outage"}, false)
	c := e.params.Sys.Curve
	two, err := c.NewPoint(c.F.Zero(), c.F.Zero())
	if err != nil {
		t.Fatal(err)
	}
	honest := e.trapdoor(t, "outage")
	for what, pt := range map[string]ec.Point{"T_W + q·S": c.Add(honest.T, torsionPoint(t, c)), "(0, 0)": two} {
		before := obsv.CounterMap()
		_, err := e.search(context.Background(), &peks.Trapdoor{T: pt}, 0)
		if wireCode(t, err) != wire.CodeBadRequest {
			t.Fatalf("trapdoor %s: %v", what, err)
		}
		if pairings := obsv.CounterMap()["pairing_ops"] - before["pairing_ops"]; pairings != 0 {
			t.Errorf("trapdoor %s: %d pairings before the refusal", what, pairings)
		}
		e.clock.Advance(time.Second)
	}
	if got := e.s.StatsRegistry().Counter("peks_searches").Value(); got != 0 {
		t.Errorf("a refused trapdoor counted as a search (%d)", got)
	}
	if resp, err := e.search(context.Background(), honest, 0); err != nil || len(resp.Items) != 1 {
		t.Fatalf("the honest trapdoor: %v", err)
	}
}

// TestSearchWildcardTagMatchesNothing stores the wildcard tags of
// internal/peks's TestWildcardTagMatchesNothing — check value H(1), the
// hash of the pairing value of a point with no G1 part, over ∞, (0, 0)
// and q·S — beside an honest tag, and searches for several keywords. The
// wildcard message matches none of them: its tag over ∞ counts as
// undecodable and the other two as tested, never as a match.
func TestSearchWildcardTagMatchesNothing(t *testing.T) {
	e := newSearchEnv(t)
	c := e.params.Sys.Curve
	h1 := kdf.Stream("mwskit/peks/h/v1", e.params.Sys.GTOne().Bytes(), 32)
	two, err := c.NewPoint(c.F.Zero(), c.F.Zero())
	if err != nil {
		t.Fatal(err)
	}
	tors := torsionPoint(t, c)
	req, err := e.dev.PrepareTaggedDepositContext(context.Background(), "ELECTRIC-X", []byte("everywhere"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []ec.Point{c.Infinity(), two, tors} {
		req.Tags = append(req.Tags, peks.MarshalTag(e.params, &peks.Tag{U: u, C: h1}))
	}
	req.MAC = macauth.Compute(e.macKey, req.MACParts()...)
	if _, err := e.s.Deposit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(time.Second)
	honest := e.deposit(t, []string{"outage"}, false)

	for _, kw := range []string{"outage", "alert", "billing-cycle-7"} {
		before := e.tagCounts()
		resp, err := e.search(context.Background(), e.trapdoor(t, kw), 0)
		if err != nil {
			t.Fatal(err)
		}
		now := e.tagCounts()
		var seqs []uint64
		for _, it := range resp.Items {
			seqs = append(seqs, it.Seq)
		}
		if want := map[bool][]uint64{true: {honest}}[kw == "outage"]; !slices.Equal(seqs, want) {
			t.Errorf("search for %q returned seqs %v, want %v", kw, seqs, want)
		}
		if got := (tagCounts{now.tested - before.tested, now.undecodable - before.undecodable}); got != (tagCounts{3, 1}) {
			t.Errorf("search for %q counted %+v; want the two finite wildcard tags and the honest one tested, ∞ undecodable", kw, got)
		}
		e.clock.Advance(time.Second)
	}
}
