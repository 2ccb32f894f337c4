package peks

import (
	"crypto/rand"
	"sync"
	"testing"

	"mwskit/internal/bfibe"
	"mwskit/internal/obsv"
	"mwskit/internal/pairing"
)

var (
	envOnce sync.Once
	envP    *bfibe.Params
	envM    *bfibe.MasterKey
)

func env(t testing.TB) (*bfibe.Params, *bfibe.MasterKey) {
	t.Helper()
	envOnce.Do(func() {
		sys := pairing.ParamsTest.MustSystem()
		var err error
		envP, envM, err = bfibe.Setup(sys, rand.Reader)
		if err != nil {
			panic(err)
		}
	})
	return envP, envM
}

func TestTagMatchesOwnKeyword(t *testing.T) {
	p, m := env(t)
	for _, kw := range []string{"outage", "tamper-alert", "billing-cycle-7"} {
		tag, err := NewTag(p, kw, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		td, err := NewTrapdoor(p, m, kw)
		if err != nil {
			t.Fatal(err)
		}
		if !Test(p, tag, td) {
			t.Fatalf("trapdoor for %q missed its own tag", kw)
		}
	}
}

func TestTagRejectsOtherKeywords(t *testing.T) {
	p, m := env(t)
	tag, err := NewTag(p, "outage", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{"Outage", "outage ", "tamper", ""} {
		if other == "" {
			continue
		}
		td, err := NewTrapdoor(p, m, other)
		if err != nil {
			t.Fatal(err)
		}
		if Test(p, tag, td) {
			t.Fatalf("trapdoor for %q matched a tag for \"outage\"", other)
		}
	}
}

func TestTagsAreUnlinkable(t *testing.T) {
	// Two tags for the SAME keyword must look unrelated (fresh r), or
	// the warehouse could cluster messages by keyword without a trapdoor.
	p, _ := env(t)
	a, err := NewTag(p, "outage", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTag(p, "outage", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if a.U.Equal(b.U) {
		t.Fatal("tag transport points repeat")
	}
	if string(a.C) == string(b.C) {
		t.Fatal("tag check values repeat")
	}
}

func TestEmptyKeywordRejected(t *testing.T) {
	p, m := env(t)
	if _, err := NewTag(p, "", rand.Reader); err == nil {
		t.Error("empty keyword tag created")
	}
	if _, err := NewTrapdoor(p, m, ""); err == nil {
		t.Error("empty keyword trapdoor created")
	}
}

func TestTestRejectsMalformed(t *testing.T) {
	p, m := env(t)
	tag, _ := NewTag(p, "kw", rand.Reader)
	td, _ := NewTrapdoor(p, m, "kw")
	if Test(p, nil, td) || Test(p, tag, nil) {
		t.Error("nil inputs accepted")
	}
	short := &Tag{U: tag.U, C: tag.C[:8]}
	if Test(p, short, td) {
		t.Error("short check value accepted")
	}
}

func TestKeywordNamespaceDisjointFromMessages(t *testing.T) {
	// A keyword trapdoor must not decapsulate message traffic: the
	// identity namespaces are disjoint, so the PKG can safely hand out
	// keyword trapdoors without leaking message keys.
	p, m := env(t)
	td, err := NewTrapdoor(p, m, "ELECTRIC-X")
	if err != nil {
		t.Fatal(err)
	}
	// Message identity for the same string via the attribute path.
	msgSK, err := m.Extract(p, []byte("ELECTRIC-X"))
	if err != nil {
		t.Fatal(err)
	}
	if td.T.Equal(msgSK.D) {
		t.Fatal("keyword trapdoor equals a message private key")
	}
}

func TestSerializationRoundTrips(t *testing.T) {
	p, m := env(t)
	tag, _ := NewTag(p, "serialize", rand.Reader)
	td, _ := NewTrapdoor(p, m, "serialize")

	tagBack, err := UnmarshalTag(p, MarshalTag(p, tag))
	if err != nil {
		t.Fatal(err)
	}
	tdBack, err := UnmarshalTrapdoor(p, MarshalTrapdoor(p, td))
	if err != nil {
		t.Fatal(err)
	}
	if !Test(p, tagBack, tdBack) {
		t.Fatal("round-tripped tag/trapdoor pair does not match")
	}
	enc := MarshalTag(p, tag)
	for _, cut := range []int{0, 3, 10, len(enc) - 1} {
		if _, err := UnmarshalTag(p, enc[:cut]); err == nil {
			t.Fatalf("truncated tag (%d bytes) accepted", cut)
		}
	}
}

func TestWarehouseFilterScenario(t *testing.T) {
	// The related-work-[1] use case end to end (library level): messages
	// carry tags; the warehouse filters with a trapdoor without learning
	// keywords.
	p, m := env(t)
	type stored struct {
		id   int
		tags []*Tag
	}
	mkTags := func(kws ...string) []*Tag {
		var out []*Tag
		for _, k := range kws {
			tg, err := NewTag(p, k, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, tg)
		}
		return out
	}
	warehouse := []stored{
		{1, mkTags("reading", "billing")},
		{2, mkTags("outage", "alert")},
		{3, mkTags("reading")},
		{4, mkTags("alert", "tamper")},
	}
	td, err := NewTrapdoor(p, m, "alert")
	if err != nil {
		t.Fatal(err)
	}
	var matched []int
	for _, s := range warehouse {
		for _, tg := range s.tags {
			if Test(p, tg, td) {
				matched = append(matched, s.id)
				break
			}
		}
	}
	if len(matched) != 2 || matched[0] != 2 || matched[1] != 4 {
		t.Fatalf("filter returned %v, want [2 4]", matched)
	}
}

// TestNewTagOpCounts pins what a tag costs its depositor: one pairing and
// no public scalar multiplication — H1's cofactor goes through the P_pub
// pairing, as for g_ID (bfibe.Params.PairIdentity).
func TestNewTagOpCounts(t *testing.T) {
	p, _ := env(t)
	before := obsv.CounterMap()
	if _, err := NewTag(p, "outage", rand.Reader); err != nil {
		t.Fatal(err)
	}
	after := obsv.CounterMap()
	pairings := after["pairing_ops"] - before["pairing_ops"]
	mults := after["scalar_mult_public"] - before["scalar_mult_public"]
	if pairings != 1 || mults != 0 {
		t.Errorf("NewTag: %d pairings, %d public scalar mults; want 1 and 0", pairings, mults)
	}
}

func BenchmarkPEKSTag(b *testing.B) {
	p, _ := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := NewTag(p, "bench-keyword", rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPEKSTest(b *testing.B) {
	p, m := env(b)
	tag, _ := NewTag(p, "bench-keyword", rand.Reader)
	td, _ := NewTrapdoor(p, m, "bench-keyword")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Test(p, tag, td) {
			b.Fatal("match failed")
		}
	}
}
