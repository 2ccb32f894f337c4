package codec

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// fields is a format holding one field of every kind: the walk below is
// its only statement of the encoding.
type fields struct {
	u8    uint8
	u32   uint32
	u64   uint64
	i64   int64
	blob  []byte
	str   string
	empty []byte
	fixed [3]byte
	list  []string
}

func (f *fields) walk(w *Walker) {
	w.Uint8(&f.u8)
	w.Uint32(&f.u32)
	w.Uint64(&f.u64)
	w.Int64(&f.i64)
	w.Blob(&f.blob)
	w.Str(&f.str)
	w.Blob(&f.empty)
	w.Fixed(f.fixed[:])
	for i := range List32(w, &f.list, 4) {
		w.Str(&f.list[i])
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := fields{u8: 7, u32: 0xDEADBEEF, u64: 1 << 60, i64: -42, blob: []byte{1, 2, 3}, str: "hello",
		fixed: [3]byte{4, 5, 6}, list: []string{"a", ""}}
	var w Walker
	in.walk(&w)

	// The walk writes exactly what the Encoder primitives write.
	var e Encoder
	e.Uint8(7)
	e.Uint32(0xDEADBEEF)
	e.Uint64(1 << 60)
	e.Int64(-42)
	e.Blob([]byte{1, 2, 3})
	e.Str("hello")
	e.Blob(nil)
	e.Blob([]byte{4, 5, 6})
	e.Uint32(2)
	e.Str("a")
	e.Str("")
	if !bytes.Equal(w.Bytes(), e.Bytes()) {
		t.Fatalf("walk wrote %x, want %x", w.Bytes(), e.Bytes())
	}

	var out fields
	r := Reader(w.Bytes())
	out.walk(&r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	in.empty = []byte{} // an empty blob reads as empty, not nil
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("read back %+v, want %+v", out, in)
	}
	if out.blob[0] = 9; w.Bytes()[25] != 1 {
		t.Fatal("a read blob aliases its input")
	}

	var none fields // an empty list writes a zero count and reads back as nil
	w = Walker{}
	none.walk(&w)
	r = Reader(w.Bytes())
	out.walk(&r)
	if err := r.Done(); err != nil || out.list != nil {
		t.Fatalf("empty list read back as %#v, %v", out.list, err)
	}
}

func TestCodecTruncation(t *testing.T) {
	var b []byte
	r := Reader([]byte{0, 0, 0, 9, 1}) // blob claims 9 bytes, has 1
	r.Blob(&b)
	if err := r.Done(); !errors.Is(err, ErrTruncated) {
		t.Fatal("truncated blob accepted")
	}
	var v uint32
	r = Reader([]byte{1, 2})
	r.Uint32(&v)
	if !errors.Is(r.Done(), ErrTruncated) {
		t.Fatal("short uint32 accepted")
	}
	r = Reader([]byte{1})
	if err := r.Done(); err != TrailingError(1) {
		t.Fatal("trailing bytes accepted")
	}

	// The first failure sticks: later fields read as zero values.
	s, u := "stale", uint64(5)
	r = Reader([]byte{0, 0, 0, 20, 'x', 0, 0, 0, 0, 0, 0, 0, 1})
	r.Str(&s)
	r.Uint64(&u)
	if s != "" || u != 0 || !errors.Is(r.Done(), ErrTruncated) {
		t.Fatalf("after a failure: %q, %d, %v", s, u, r.Done())
	}

	var fixed [3]byte
	r = Reader([]byte{0, 0, 0, 2, 1, 2})
	r.Fixed(fixed[:])
	if r.Done() == nil {
		t.Fatal("a fixed field of the wrong length accepted")
	}
}

// TestListCounts: a count over its limit, or over the bytes left, fails
// the walk and makes nothing.
func TestListCounts(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		ok   bool
	}{
		{"within", []byte{0, 0, 0, 2, 7, 8}, true},
		{"over the limit", []byte{0, 0, 0, 5, 1, 2, 3, 4, 5}, false},
		{"over the bytes left", []byte{0, 0, 0, 3, 7, 8}, false},
	} {
		var list []uint8
		r := Reader(c.in)
		for i := range List32(&r, &list, 4) {
			r.Uint8(&list[i])
		}
		if err := r.Done(); (err == nil) != c.ok || (!c.ok && list != nil) {
			t.Errorf("%s: list %v, %v", c.name, list, err)
		}
	}
	var list []uint8
	r := Reader([]byte{0, 0, 0, 0, 0, 0, 0, 1, 7})
	for i := range List64(&r, &list, 1) {
		r.Uint8(&list[i])
	}
	if err := r.Done(); err != nil || !bytes.Equal(list, []byte{7}) {
		t.Fatalf("List64 read %v, %v", list, err)
	}
}
