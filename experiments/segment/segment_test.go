package segment

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

func testGroup(t *testing.T) GroupID {
	t.Helper()
	g, err := NewGroupID(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWrapUnwrapRoundTrip(t *testing.T) {
	g := testGroup(t)
	for idx := uint8(0); idx < 3; idx++ {
		body := []byte{1, 2, 3, idx}
		wrapped, err := Wrap(g, idx, 3, body)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := Unwrap(wrapped)
		if !ok {
			t.Fatal("Unwrap rejected a wrapped segment")
		}
		if e.Group != g || e.Index != idx || e.Total != 3 || !bytes.Equal(e.Body, body) {
			t.Fatalf("round trip mismatch: %+v", e)
		}
	}
}

func TestWrapValidation(t *testing.T) {
	g := testGroup(t)
	if _, err := Wrap(g, 0, 0, nil); err == nil {
		t.Error("total=0 accepted")
	}
	if _, err := Wrap(g, 3, 3, nil); err == nil {
		t.Error("index==total accepted")
	}
	if _, err := Wrap(g, 0, 1, nil); err != nil {
		t.Errorf("empty body rejected: %v", err)
	}
}

func TestUnwrapRejectsNonSegments(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("ordinary message body"),
		[]byte("SEG"),
		bytes.Repeat([]byte{0}, 64),
	}
	for _, c := range cases {
		if _, ok := Unwrap(c); ok {
			t.Errorf("Unwrap accepted non-segment %q", c)
		}
	}
	// Truncated body length must be rejected.
	g := testGroup(t)
	wrapped, _ := Wrap(g, 0, 1, []byte("12345"))
	if _, ok := Unwrap(wrapped[:len(wrapped)-1]); ok {
		t.Error("truncated segment accepted")
	}
	// Mutated header (index ≥ total).
	bad := append([]byte(nil), wrapped...)
	bad[4+GroupIDLen] = 9
	if _, ok := Unwrap(bad); ok {
		t.Error("index ≥ total accepted")
	}
}

func TestUnwrapPropertyNeverPanics(t *testing.T) {
	if err := quick.Check(func(b []byte) bool {
		Unwrap(b) // must not panic, whatever the input
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAssembler(t *testing.T) {
	g := testGroup(t)
	as := NewAssembler()

	for idx, body := range [][]byte{[]byte("consumption"), []byte("errors"), []byte("events")} {
		wrapped, err := Wrap(g, uint8(idx), 3, body)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := Unwrap(wrapped)
		if !ok {
			t.Fatal("unwrap failed")
		}
		if err := as.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	groups := as.Groups()
	if len(groups) != 1 {
		t.Fatalf("%d groups", len(groups))
	}
	got := groups[0]
	if !got.Complete() {
		t.Fatal("complete group reported incomplete")
	}
	if string(got.Join()) != "consumptionerrorsevents" {
		t.Fatalf("Join = %q", got.Join())
	}
}

func TestAssemblerPartialView(t *testing.T) {
	// The confidentiality case: a client holding only the errors
	// attribute sees only segment 1.
	g := testGroup(t)
	as := NewAssembler()
	wrapped, _ := Wrap(g, 1, 3, []byte("errors"))
	e, _ := Unwrap(wrapped)
	if err := as.Add(e); err != nil {
		t.Fatal(err)
	}
	got := as.Groups()[0]
	if got.Complete() {
		t.Fatal("partial group reported complete")
	}
	if string(got.Join()) != "errors" {
		t.Fatalf("partial Join = %q", got.Join())
	}
}

func TestAssemblerConflicts(t *testing.T) {
	g := testGroup(t)
	as := NewAssembler()
	w1, _ := Wrap(g, 0, 2, []byte("a"))
	e1, _ := Unwrap(w1)
	if err := as.Add(e1); err != nil {
		t.Fatal(err)
	}
	// Same index, same body: idempotent.
	if err := as.Add(e1); err != nil {
		t.Fatalf("idempotent re-add rejected: %v", err)
	}
	// Same index, different body: conflict.
	w2, _ := Wrap(g, 0, 2, []byte("b"))
	e2, _ := Unwrap(w2)
	if err := as.Add(e2); err == nil {
		t.Fatal("conflicting duplicate accepted")
	}
	// Total mismatch within the group.
	w3, _ := Wrap(g, 1, 3, []byte("c"))
	e3, _ := Unwrap(w3)
	if err := as.Add(e3); err == nil {
		t.Fatal("total mismatch accepted")
	}
	if err := as.Add(nil); err == nil {
		t.Fatal("nil envelope accepted")
	}
}

func TestAssemblerMultipleGroups(t *testing.T) {
	as := NewAssembler()
	for i := 0; i < 3; i++ {
		g := testGroup(t)
		w, _ := Wrap(g, 0, 1, []byte{byte(i)})
		e, _ := Unwrap(w)
		if err := as.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if len(as.Groups()) != 3 {
		t.Fatalf("%d groups, want 3", len(as.Groups()))
	}
}
