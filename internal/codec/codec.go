// Package codec is the one length-prefixed binary codec of the tree. A
// format — a wire message, a stored record, a ticket plaintext — is one
// walk: a method that hands each of its fields, in order, to a Walker,
// which appends the field when the walk marshals and reads it back when
// the walk unmarshals. Field order, widths and bounds are so stated once
// for both directions, with no reflection, and a field cannot be written
// without being read. Fields are big-endian fixed-width integers and
// 4-byte-length-prefixed byte strings, so every format is stable and
// auditable. It imports only the standard library; each user wraps the
// errors below under its own name at its decode boundary.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoder is the append-only field encoder: a writing Walker's output,
// and on its own the builder of byte strings that are never decoded.
type Encoder struct{ buf []byte }

// Bytes returns the accumulated encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// Uint8 appends a one-byte field.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Uint32 appends a fixed four-byte field.
func (e *Encoder) Uint32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }

// Uint64 appends a fixed eight-byte field.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

// Int64 appends a signed eight-byte field.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Blob appends a length-prefixed byte field.
func (e *Encoder) Blob(b []byte) {
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Str appends a length-prefixed string field.
func (e *Encoder) Str(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// ErrTruncated reports input that ends inside a field.
var ErrTruncated = errors.New("truncated encoding")

// TrailingError reports how many bytes were left after the last field of
// a fixed-shape encoding.
type TrailingError int

func (n TrailingError) Error() string { return fmt.Sprintf("%d trailing bytes", int(n)) }

// Walker takes a format's fields in one direction. The zero Walker
// writes: each accessor appends the field its pointer holds, and Bytes
// returns the encoding. Reader returns one that reads: each accessor
// stores the next field through its pointer. A writing walk never stores
// through a pointer, so marshalling does not write to the value it
// encodes. Reading never panics on corrupt or hostile input: the first
// failure sticks, every later field reads as its zero value, and Done
// reports the failure.
type Walker struct {
	out     Encoder // writing: the fields so far
	in      []byte  // reading: the bytes not yet read
	reading bool
	err     error // reading: the first failure
}

// Reader returns a Walker that reads the fields of b.
func Reader(b []byte) Walker { return Walker{in: b, reading: true} }

// Reading reports whether w reads. A walk asks only to set a value that
// is not itself a field, such as one converted from a field.
func (w *Walker) Reading() bool { return w.reading }

// Bytes returns what a writing Walker has appended.
func (w *Walker) Bytes() []byte { return w.out.Bytes() }

// Done reports a reading Walker's first failure, or the bytes left after
// its last field.
func (w *Walker) Done() error {
	if w.err == nil && len(w.in) != 0 {
		return TrailingError(len(w.in))
	}
	return w.err
}

func (w *Walker) fail(err error) {
	if w.err == nil {
		w.err, w.in = err, nil
	}
}

// take consumes the next n bytes; with fewer left it fails the walk.
func (w *Walker) take(n uint64) ([]byte, bool) {
	if w.err != nil {
		return nil, false
	}
	if uint64(len(w.in)) < n {
		w.fail(ErrTruncated)
		return nil, false
	}
	b := w.in[:n]
	w.in = w.in[n:]
	return b, true
}

// field consumes a length-prefixed field and returns its bytes, which
// alias the input.
func (w *Walker) field() ([]byte, bool) {
	var n uint32
	w.Uint32(&n)
	return w.take(uint64(n))
}

// Uint8 walks a one-byte field.
func (w *Walker) Uint8(v *uint8) {
	if !w.reading {
		w.out.Uint8(*v)
		return
	}
	*v = 0
	if b, ok := w.take(1); ok {
		*v = b[0]
	}
}

// Uint32 walks a four-byte field.
func (w *Walker) Uint32(v *uint32) {
	if !w.reading {
		w.out.Uint32(*v)
		return
	}
	*v = 0
	if b, ok := w.take(4); ok {
		*v = binary.BigEndian.Uint32(b)
	}
}

// Uint64 walks an eight-byte field.
func (w *Walker) Uint64(v *uint64) {
	if !w.reading {
		w.out.Uint64(*v)
		return
	}
	*v = 0
	if b, ok := w.take(8); ok {
		*v = binary.BigEndian.Uint64(b)
	}
}

// Int64 walks a signed eight-byte field.
func (w *Walker) Int64(v *int64) {
	if !w.reading {
		w.out.Int64(*v)
		return
	}
	var u uint64
	w.Uint64(&u)
	*v = int64(u)
}

// Blob walks a length-prefixed byte field. A read blob is copied out of
// the input, and an empty one reads as an empty, non-nil slice.
func (w *Walker) Blob(b *[]byte) {
	if !w.reading {
		w.out.Blob(*b)
		return
	}
	*b = nil
	if p, ok := w.field(); ok {
		*b = make([]byte, len(p))
		copy(*b, p)
	}
}

// Str walks a length-prefixed string field.
func (w *Walker) Str(s *string) {
	if !w.reading {
		w.out.Str(*s)
		return
	}
	*s = ""
	if p, ok := w.field(); ok {
		*s = string(p)
	}
}

// Fixed walks a length-prefixed field that is always len(b) bytes long,
// reading it into b; a field of any other length fails the walk.
func (w *Walker) Fixed(b []byte) {
	if !w.reading {
		w.out.Blob(b)
		return
	}
	clear(b)
	p, ok := w.field()
	if ok && len(p) != len(b) {
		w.fail(fmt.Errorf("field of %d bytes where %d are required", len(p), len(b)))
		return
	}
	copy(b, p)
}

// List32 and List64 walk the count of a list of at most limit elements,
// as a four- or an eight-byte field, and return the list, whose elements
// the caller then walks in order. Reading, they make *s that long, or nil
// for a count of 0. A count above limit fails the walk, and so does one
// above the bytes left, since no element takes less than one: both before
// anything is made, so a hostile count cannot force an allocation out of
// proportion to the input that carries it.
func List32[T any](w *Walker, s *[]T, limit uint32) []T {
	if !w.reading {
		w.out.Uint32(uint32(len(*s)))
		return *s
	}
	var n uint32
	w.Uint32(&n)
	return makeList(w, s, uint64(n), uint64(limit))
}

// List64 is List32 with an eight-byte count.
func List64[T any](w *Walker, s *[]T, limit uint64) []T {
	if !w.reading {
		w.out.Uint64(uint64(len(*s)))
		return *s
	}
	var n uint64
	w.Uint64(&n)
	return makeList(w, s, n, limit)
}

func makeList[T any](w *Walker, s *[]T, n, limit uint64) []T {
	*s = nil
	switch {
	case n > limit:
		w.fail(fmt.Errorf("implausible count %d, over the limit %d", n, limit))
	case n > uint64(len(w.in)):
		w.fail(fmt.Errorf("count %d over the %d bytes left: %w", n, len(w.in), ErrTruncated))
	case n > 0:
		*s = make([]T, n)
	}
	return *s
}
