package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"mwskit/internal/attr"
)

func testAttr(i int) attr.Attribute {
	return attr.Attribute(fmt.Sprintf("UTILITY-%02d", i))
}

// testAttrs is the set of the first n test attributes.
func testAttrs(n int) attr.Set {
	set := make(attr.Set, n)
	for i := range set {
		set[i] = testAttr(i)
	}
	return set
}

// scan reads one attribute's messages the one way the engine serves
// them, as a set of one.
func scan(p Provider, a attr.Attribute, fromSeq uint64, limit int) []*Message {
	return p.ScanAttributes(attr.Set{a}, fromSeq, limit)
}

// stored is the message with sequence number seq among a's.
func stored(p Provider, a attr.Attribute, seq uint64) (*Message, bool) {
	got := scan(p, a, seq, 1)
	if len(got) == 0 || got[0].Seq != seq {
		return nil, false
	}
	return got[0], true
}

// storedSeqs indexes by sequence number every message stored under set.
func storedSeqs(p Provider, set attr.Set) map[uint64]*Message {
	out := make(map[uint64]*Message)
	for _, m := range p.ScanAttributes(set, 0, 0) {
		out[m.Seq] = m
	}
	return out
}

func testMessage(a attr.Attribute, i int) *Message {
	var n attr.Nonce
	n[0] = byte(i)
	n[1] = byte(i >> 8)
	return &Message{
		DeviceID:   fmt.Sprintf("meter-%d", i%7),
		Attribute:  a,
		Nonce:      n,
		U:          []byte{1, 2, byte(i)},
		Ciphertext: []byte(fmt.Sprintf("ciphertext-%d", i)),
		Scheme:     "aes-gcm",
		Timestamp:  1700000000 + int64(i),
	}
}

func sameMessage(t *testing.T, want, got *Message) {
	t.Helper()
	if got == nil {
		t.Fatalf("missing message seq=%d", want.Seq)
	}
	if !reflect.DeepEqual(*want, *got) {
		t.Fatalf("message mismatch:\nwant %+v\ngot  %+v", *want, *got)
	}
}

// variant is one way to run the engine. The whole suite runs over all of
// them: there is one provider type, so what differs is only the shard
// count and whether logs sit under it.
type variant struct {
	name string
	opts Options
}

var variants = []variant{
	{"shards=1", Options{Shards: 1}},
	{"shards=8", Options{Shards: 8}},
	{"memory", Options{Backend: BackendMemory}},
}

func (v variant) durable() bool { return v.opts.Backend != BackendMemory }

func (v variant) open(t testing.TB, dir string) Provider {
	t.Helper()
	p, err := Open(Config{Dir: dir, Sync: SyncNever, Options: v.opts})
	if err != nil {
		t.Fatalf("open %s: %v", v.name, err)
	}
	return p
}

// forEachVariant runs fn over a fresh provider of every variant.
func forEachVariant(t *testing.T, fn func(t *testing.T, v variant, p Provider)) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			p := v.open(t, t.TempDir())
			defer p.Close()
			fn(t, v, p)
		})
	}
}

func mustAppend(t testing.TB, p Provider, m *Message) uint64 {
	t.Helper()
	seq, err := p.Append(context.Background(), m)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return seq
}

// TestProviderRoundTrip exercises the full Provider surface over every
// variant: append, attribute scans with cursors and limits, counts, KV,
// and (for the durable ones) persistence across reopen.
func TestProviderRoundTrip(t *testing.T) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			p := v.open(t, dir)

			const perAttr, attrs = 5, 6
			want := make(map[uint64]*Message)
			byAttr := make(map[attr.Attribute][]*Message)
			for i := 0; i < perAttr*attrs; i++ {
				a := testAttr(i % attrs)
				m := testMessage(a, i)
				seq := mustAppend(t, p, m)
				cp := *m
				cp.Seq = seq
				if _, dup := want[seq]; dup {
					t.Fatalf("duplicate seq %d", seq)
				}
				want[seq] = &cp
				byAttr[a] = append(byAttr[a], &cp)
			}

			check := func(p Provider) {
				t.Helper()
				if got := p.Count(); got != len(want) {
					t.Fatalf("Count = %d, want %d", got, len(want))
				}
				// The attributes' index holds every message, and nothing
				// past the top.
				all := storedSeqs(p, testAttrs(attrs))
				for seq, w := range want {
					sameMessage(t, w, all[seq])
				}
				if len(all) != len(want) {
					t.Fatalf("attribute index holds %d messages, want %d", len(all), len(want))
				}
				if past := p.ScanAttributes(testAttrs(attrs), uint64(len(want)), 0); len(past) != 0 {
					t.Fatalf("scan past the top returned %d messages never stored", len(past))
				}
				for a, ms := range byAttr {
					// A one-attribute set sees only its own messages.
					got := scan(p, a, 0, 0)
					if len(got) != len(ms) {
						t.Fatalf("scan(%s) = %d msgs, want %d", a, len(got), len(ms))
					}
					for i, g := range got {
						sameMessage(t, ms[i], g)
						if i > 0 && got[i-1].Seq >= g.Seq {
							t.Fatalf("scan out of order: %d then %d", got[i-1].Seq, g.Seq)
						}
					}
					// Cursor: resume at the third message (inclusive).
					rest := scan(p, a, ms[2].Seq, 0)
					if len(rest) != len(ms)-2 {
						t.Fatalf("cursor scan = %d, want %d", len(rest), len(ms)-2)
					}
					sameMessage(t, ms[2], rest[0])
					if lim := scan(p, a, 0, 2); len(lim) != 2 {
						t.Fatalf("limited scan = %d, want 2", len(lim))
					}
				}
				// Merged scan across two attributes, globally seq-ordered.
				set := attr.Set{testAttr(0), testAttr(1)}
				merged := p.ScanAttributes(set, 0, 0)
				if len(merged) != 2*perAttr {
					t.Fatalf("ScanAttributes = %d, want %d", len(merged), 2*perAttr)
				}
				for i := 1; i < len(merged); i++ {
					if merged[i-1].Seq >= merged[i].Seq {
						t.Fatalf("merged scan out of order at %d", i)
					}
				}
				if lim := p.ScanAttributes(set, 0, 3); len(lim) != 3 {
					t.Fatalf("limited merged scan = %d, want 3", len(lim))
				}
				if rest := p.ScanAttributes(set, merged[4].Seq, 0); len(rest) != 2*perAttr-4 {
					t.Fatalf("merged cursor scan = %d, want %d", len(rest), 2*perAttr-4)
				}
			}
			check(p)

			// KV round-trip through the same provider.
			kv, err := p.KV("policy")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if err := kv.Put(fmt.Sprintf("grant/%d", i), []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := kv.Delete("grant/3"); err != nil {
				t.Fatal(err)
			}
			if n := kvLen(kv); n != 19 {
				t.Fatalf("kv holds %d keys, want 19", n)
			}
			if again, _ := p.KV("policy"); again != kv {
				t.Fatal("second KV(policy) returned a different handle")
			}
			for _, bad := range []string{"../escape", "", "messages", "shard-000", metaName} {
				if _, err := p.KV(bad); err == nil {
					t.Fatalf("KV name %q accepted", bad)
				}
			}

			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if !v.durable() {
				return
			}
			// Everything survives a close/reopen, with the shard count
			// read back from the directory.
			re, err := Open(Config{Dir: dir, Sync: SyncNever})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer re.Close()
			if re.Shards() != v.opts.Shards {
				t.Fatalf("reopened Shards = %d, want %d", re.Shards(), v.opts.Shards)
			}
			check(re)
			kv2, err := re.KV("policy")
			if err != nil {
				t.Fatal(err)
			}
			if n := kvLen(kv2); n != 19 {
				t.Fatalf("reopened kv holds %d keys, want 19", n)
			}
			if _, ok := kv2.Get("grant/3"); ok {
				t.Fatal("deleted key came back on reopen")
			}
			if v, ok := kv2.Get("grant/7"); !ok || v[0] != 7 {
				t.Fatalf("reopened kv.Get(grant/7) = %v, %v", v, ok)
			}
			// Sequence numbering resumes right above the replayed range.
			if top := mustAppend(t, re, testMessage(testAttr(0), 999)); top != uint64(len(want)) {
				t.Fatalf("post-reopen seq = %d, want %d", top, len(want))
			}
		})
	}
}

func TestAppendRejectsInvalid(t *testing.T) {
	forEachVariant(t, func(t *testing.T, _ variant, p Provider) {
		if _, err := p.Append(context.Background(), nil); err == nil {
			t.Fatal("nil message accepted")
		}
		if _, err := p.Append(context.Background(), testMessage("bad attribute!", 0)); err == nil {
			t.Fatal("invalid attribute accepted")
		}
		if p.Count() != 0 {
			t.Fatalf("rejected appends were stored: Count = %d", p.Count())
		}
	})
}

func TestAppendDoesNotAliasCaller(t *testing.T) {
	forEachVariant(t, func(t *testing.T, _ variant, p Provider) {
		m := testMessage("A1", 1)
		m.Seq = 77 // ignored
		seq := mustAppend(t, p, m)
		m.DeviceID = "mutated"
		got, _ := stored(p, "A1", seq)
		if got.DeviceID != "meter-1" || got.Seq != seq {
			t.Fatalf("Append aliased the caller's struct: %+v", got)
		}
	})
}

// TestProviderModelProperty checks the provider against a trivial
// in-memory model under quick-generated deposit sequences: counts,
// per-attribute listings, ordering, and content must all agree.
func TestProviderModelProperty(t *testing.T) {
	forEachVariant(t, func(t *testing.T, _ variant, p Provider) {
		type modelMsg struct {
			seq     uint64
			attrKey attr.Attribute
			body    []byte
		}
		var model []modelMsg
		if err := quick.Check(func(attrIdx uint8, body []byte) bool {
			a := attr.Attribute(fmt.Sprintf("ATTR-%d", attrIdx%5))
			m := testMessage(a, int(attrIdx))
			m.Ciphertext = body
			seq, err := p.Append(context.Background(), m)
			if err != nil {
				return false
			}
			model = append(model, modelMsg{seq: seq, attrKey: a, body: body})
			if p.Count() != len(model) {
				return false
			}
			// Per-attribute listing agrees in order and content.
			var want []modelMsg
			for _, mm := range model {
				if mm.attrKey == a {
					want = append(want, mm)
				}
			}
			got := scan(p, a, 0, 0)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i].Seq != want[i].seq || got[i].Attribute != a || !bytes.Equal(got[i].Ciphertext, want[i].body) {
					return false
				}
			}
			// A read at the new message's cursor agrees.
			back, ok := stored(p, a, seq)
			return ok && bytes.Equal(back.Ciphertext, body)
		}, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCursorPaginationProperty: for any fromSeq, pagination with limit 1
// visits exactly the messages with Seq ≥ fromSeq, in order, each once —
// on one attribute and, across shards, on a set.
func TestCursorPaginationProperty(t *testing.T) {
	forEachVariant(t, func(t *testing.T, _ variant, p Provider) {
		const total = 40
		set := attr.Set{"A1", "A2", "A3"}
		for i := 0; i < total; i++ {
			if seq := mustAppend(t, p, testMessage(set[i%len(set)], i)); seq != uint64(i) {
				t.Fatalf("seq = %d, want %d", seq, i)
			}
		}
		pages := map[string]func(cursor uint64) []*Message{
			"set":  func(cursor uint64) []*Message { return p.ScanAttributes(set, cursor, 1) },
			"attr": func(cursor uint64) []*Message { return scan(p, "A1", cursor, 1) },
		}
		for name, page := range pages {
			if err := quick.Check(func(start uint8) bool {
				from := uint64(start) % (total + 5)
				var want []uint64
				for s := from; s < total; s++ {
					if name == "set" || s%3 == 0 {
						want = append(want, s)
					}
				}
				var visited []uint64
				for cursor := from; ; {
					got := page(cursor)
					if len(got) == 0 {
						break
					}
					visited = append(visited, got[0].Seq)
					cursor = got[0].Seq + 1
				}
				return reflect.DeepEqual(visited, want)
			}, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	})
}

// TestScanAttributesMatchesSortAndCut: on random stores over 1 to 8
// shards, ScanAttributes returns what gathering every match at or past
// fromSeq, sorting it by seq and cutting it to limit returns, limit 0
// (no cut) included.
func TestScanAttributesMatchesSortAndCut(t *testing.T) {
	rng := mrand.New(mrand.NewPCG(46, 1))
	for trial := 0; trial < 12; trial++ {
		shards := 1 + rng.IntN(8)
		p, err := Open(Config{Dir: t.TempDir(), Sync: SyncNever, Options: Options{Shards: shards}})
		if err != nil {
			t.Fatal(err)
		}
		n := rng.IntN(160)
		var all []*Message
		for i := 0; i < n; i++ {
			m := testMessage(testAttr(rng.IntN(10)), i)
			m.Seq = mustAppend(t, p, m)
			all = append(all, m)
		}
		for q := 0; q < 60; q++ {
			var set attr.Set
			for _, i := range rng.Perm(10)[:1+rng.IntN(10)] {
				set = append(set, testAttr(i))
			}
			from, limit := uint64(rng.IntN(n+2)), rng.IntN(n+2)
			var want []uint64
			for _, m := range all {
				if m.Seq >= from && slices.Contains(set, m.Attribute) {
					want = append(want, m.Seq)
				}
			}
			slices.Sort(want)
			if limit > 0 && len(want) > limit {
				want = want[:limit]
			}
			var got []uint64
			for _, m := range p.ScanAttributes(set, from, limit) {
				if !slices.Contains(set, m.Attribute) {
					t.Fatalf("shards %d: seq %d of %s is outside the set", shards, m.Seq, m.Attribute)
				}
				got = append(got, m.Seq)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("shards %d, %d messages, set %v, from %d, limit %d:\n got %v\nwant %v", shards, n, set, from, limit, got, want)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMessageTagsDurability(t *testing.T) {
	for _, v := range variants {
		if !v.durable() {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			p := v.open(t, dir)
			m := testMessage("A1", 1)
			m.Tags = [][]byte{[]byte("peks-tag-1"), []byte("peks-tag-2")}
			tagged := mustAppend(t, p, m)
			plain := mustAppend(t, p, testMessage("A1", 2)) // tagless, same shard
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			re := v.open(t, dir)
			defer re.Close()
			got, ok := stored(re, "A1", tagged)
			if !ok || !reflect.DeepEqual(got.Tags, m.Tags) {
				t.Fatalf("tags not recovered: %+v", got)
			}
			if got, ok := stored(re, "A1", plain); !ok || got.Tags != nil {
				t.Fatalf("tagless message corrupted: %+v", got)
			}
		})
	}
}

// TestConcurrentAppends hammers the provider from many goroutines and
// checks the sequence-number contract: globally unique, per-shard
// strictly monotonic in append order, all durable on reopen.
func TestConcurrentAppends(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			p, err := Open(Config{Dir: dir, Sync: SyncAlways, Options: Options{Shards: shards}})
			if err != nil {
				t.Fatal(err)
			}
			const workers, perWorker = 8, 30
			var wg sync.WaitGroup
			seqs := make([][]uint64, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						a := testAttr((w + i) % 16)
						seq, err := p.Append(context.Background(), testMessage(a, w*perWorker+i))
						if err != nil {
							t.Errorf("append: %v", err)
							return
						}
						seqs[w] = append(seqs[w], seq)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			seen := make(map[uint64]bool)
			for _, ws := range seqs {
				for _, s := range ws {
					if seen[s] {
						t.Fatalf("duplicate seq %d", s)
					}
					seen[s] = true
				}
			}
			if p.Count() != workers*perWorker {
				t.Fatalf("Count = %d, want %d", p.Count(), workers*perWorker)
			}
			stats := p.ShardStats()
			if len(stats) != shards {
				t.Fatalf("ShardStats = %d entries, want %d", len(stats), shards)
			}
			var total int
			var appends, fsyncs uint64
			for _, st := range stats {
				total += st.Messages
				appends += st.Appends
				fsyncs += st.Fsyncs
			}
			if total != workers*perWorker || appends != workers*perWorker {
				t.Fatalf("shard totals: %d messages, %d appends, want %d", total, appends, workers*perWorker)
			}
			if fsyncs == 0 || fsyncs > appends {
				t.Fatalf("%d fsyncs for %d SyncAlways appends", fsyncs, appends)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(Config{Dir: dir, Sync: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Shards() != shards {
				t.Fatalf("reopened shards = %d, want %d", re.Shards(), shards)
			}
			if re.Count() != workers*perWorker {
				t.Fatalf("reopened Count = %d, want %d", re.Count(), workers*perWorker)
			}
			survived := storedSeqs(re, testAttrs(16))
			for s := range seen {
				if survived[s] == nil {
					t.Fatalf("acked seq %d lost across reopen", s)
				}
			}
			// Per-attribute scans are per-shard and must come back in strictly
			// increasing sequence order (monotonic within the shard).
			for i := 0; i < 16; i++ {
				got := scan(re, testAttr(i), 0, 0)
				for j := 1; j < len(got); j++ {
					if got[j-1].Seq >= got[j].Seq {
						t.Fatalf("attr %d scan not monotonic", i)
					}
				}
			}
		})
	}
}

// TestScanAttributesTailCursor is the reader every retrieving client is:
// it tails a set of attributes spread over several shards with
// cursor = last+1 while writers append. Every acknowledged sequence
// number must be delivered exactly once, and no page may hold a seq whose
// predecessor in the set shows up only later — the gap a cursor would
// step over.
func TestScanAttributesTailCursor(t *testing.T) {
	p, err := Open(Config{Dir: t.TempDir(), Sync: SyncNever, Options: Options{Shards: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// One attribute per shard, so every page merges four partitions.
	var set attr.Set
	for i, taken := 0, map[int]bool{}; len(set) < p.Shards(); i++ {
		if a := testAttr(i); !taken[p.ShardOf(a)] {
			taken[p.ShardOf(a)] = true
			set = append(set, a)
		}
	}
	const perWriter = 1500
	var (
		wg      sync.WaitGroup
		writing atomic.Int32
	)
	for w, a := range set {
		wg.Add(1)
		writing.Add(1)
		go func() {
			defer wg.Done()
			defer writing.Add(-1)
			for i := 0; i < perWriter; i++ {
				if _, err := p.Append(context.Background(), testMessage(a, w*perWriter+i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	// Every append is to an attribute in the set and none fails, so the
	// set holds every sequence number: a gap-free tail is exactly 0, 1, 2…
	var next uint64
	for done := false; !done; {
		done = writing.Load() == 0 // checked before the scan: one last full page
		for _, m := range p.ScanAttributes(set, next, 64) {
			if m.Seq != next {
				t.Fatalf("tail delivered seq %d, want %d: a lower in-flight seq was stepped over", m.Seq, next)
			}
			next++
		}
	}
	wg.Wait()
	for _, m := range p.ScanAttributes(set, next, 0) {
		if m.Seq != next {
			t.Fatalf("final page delivered seq %d, want %d", m.Seq, next)
		}
		next++
	}
	if want := uint64(len(set) * perWriter); next != want {
		t.Fatalf("tail delivered %d messages, want %d", next, want)
	}
}

// TestOpenConfigErrors pins the configuration error cases.
func TestOpenConfigErrors(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(Config{Dir: dir, Sync: SyncNever, Options: Options{Shards: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir, Sync: SyncNever, Options: Options{Shards: 6}}); err == nil {
		t.Fatal("shard-count conflict must fail")
	}
	for _, bad := range []string{"bogus", "local"} {
		if _, err := Open(Config{Dir: t.TempDir(), Sync: SyncNever, Options: Options{Backend: bad}}); err == nil {
			t.Fatalf("backend %q must fail", bad)
		}
	}
	if _, err := Open(Config{Dir: t.TempDir(), Sync: SyncNever, Options: Options{Shards: 1025}}); err == nil {
		t.Fatal("out-of-range shard count must fail")
	}
	if _, err := Open(Config{Sync: SyncNever}); err == nil {
		t.Fatal("missing Dir must fail")
	}
	// An undefined policy would acknowledge appends nobody syncs.
	if _, err := Open(Config{Dir: t.TempDir(), Sync: SyncNever + 1}); err == nil {
		t.Fatal("Open: undefined sync policy must fail")
	}
	if _, err := OpenKV(t.TempDir(), SyncNever+1); err == nil {
		t.Fatal("OpenKV: undefined sync policy must fail")
	}
	// Matching explicit shard count reopens fine, under either spelling.
	for _, backend := range []string{"", BackendSharded} {
		re, err := Open(Config{Dir: dir, Sync: SyncNever, Options: Options{Backend: backend, Shards: 4}})
		if err != nil {
			t.Fatal(err)
		}
		re.Close()
	}
}

// TestOpenUndefinedSyncPolicyWritesNothing: an undefined policy is
// refused before the marker is written, so a fresh directory is left
// as it was, free to be opened with any shard count; the memory
// backend refuses it too.
func TestOpenUndefinedSyncPolicyWritesNothing(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(Config{Dir: dir, Sync: SyncNever + 1, Options: Options{Shards: 2}}); err == nil {
		t.Fatal("Open: undefined sync policy must fail")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a refused Open left %d entries in a fresh directory (first %s)", len(entries), entries[0].Name())
	}
	if _, err := Open(Config{Sync: SyncNever + 1, Options: Options{Backend: BackendMemory}}); err == nil {
		t.Fatal("memory backend: undefined sync policy must fail")
	}
}

// treeContents maps every file under dir to its bytes.
func treeContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		out[path] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOpenUnknownLayout: WAL segments in a first-level subdirectory that
// is not a shard are data this engine would silently not serve, so Open
// refuses the directory by name and changes nothing in it — with or
// without a marker. Files that are not WAL directories are none of its
// business.
func TestOpenUnknownLayout(t *testing.T) {
	strayWAL := func(t *testing.T, dir, name string) {
		t.Helper()
		kv, err := OpenKV(filepath.Join(dir, name), SyncNever)
		if err != nil {
			t.Fatal(err)
		}
		mustPut(t, kv, "k", []byte("v"))
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
	}
	refused := func(t *testing.T, dir, name string) {
		t.Helper()
		before := treeContents(t, dir)
		_, err := Open(Config{Dir: dir, Sync: SyncNever})
		if !errors.Is(err, ErrUnknownLayout) || !strings.Contains(err.Error(), filepath.Join(dir, name)) {
			t.Fatalf("Open = %v, want ErrUnknownLayout naming %s", err, name)
		}
		if after := treeContents(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("refused Open changed the directory:\nbefore %v\nafter  %v", before, after)
		}
	}
	t.Run("Unmarked", func(t *testing.T) {
		dir := t.TempDir()
		strayWAL(t, dir, "messages")
		refused(t, dir, "messages")
	})
	t.Run("BesideMarker", func(t *testing.T) {
		dir := t.TempDir()
		p, err := Open(Config{Dir: dir, Sync: SyncNever, Options: Options{Shards: 2}})
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, p, testMessage("ELECTRIC-A", 1))
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		strayWAL(t, dir, "devices")
		refused(t, dir, "devices")
	})
	t.Run("StrayFile", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "mws-pkg.key"), []byte("00ff\n"), 0o600); err != nil {
			t.Fatal(err)
		}
		p, err := Open(Config{Dir: dir, Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if _, err := os.Stat(filepath.Join(dir, metaName)); err != nil {
			t.Fatalf("marker after Open: %v", err)
		}
	})
}

// TestCompactHeuristic verifies Provider.Compact's threshold behavior.
func TestCompactHeuristic(t *testing.T) {
	forEachVariant(t, func(t *testing.T, _ variant, p Provider) {
		kv, err := p.KV("policy")
		if err != nil {
			t.Fatal(err)
		}
		// Churn one key hard: mutations ≫ live keys.
		for i := 0; i < 100; i++ {
			if err := kv.Put("hot", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := p.Compact(1 << 20); err != nil || n != 0 {
			t.Fatalf("Compact below threshold = %d, %v; want 0, nil", n, err)
		}
		if n, err := p.Compact(10); err != nil || n != 1 {
			t.Fatalf("Compact above threshold = %d, %v; want 1 (the hot key's part), nil", n, err)
		}
		if muts := mutations(kv); muts != 1 {
			t.Fatalf("mutations after compaction = %d, want 1", muts)
		}
		if v, ok := kv.Get("hot"); !ok || v[0] != 99 {
			t.Fatalf("compaction lost data: %v, %v", v, ok)
		}
	})
}
