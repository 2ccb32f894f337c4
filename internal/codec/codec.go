// Package codec is the one length-prefixed binary codec of the tree: wire
// messages, stored records and ticket plaintexts are all built by hand (no
// reflection) from the same two primitives — big-endian fixed-width
// integers and 4-byte-length-prefixed byte strings — so every format is
// stable and auditable. It imports only the standard library; each user
// wraps the errors below under its own name at its decode boundary.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoder is the append-only field encoder.
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

// Decoder is the matching reader; every accessor fails cleanly on
// truncated input, so corrupt or hostile bytes can never panic a caller.
type Decoder struct{ buf []byte }

// NewDecoder wraps an encoding for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// ErrTruncated reports input that ends inside a field.
var ErrTruncated = errors.New("truncated encoding")

// TrailingError reports how many bytes were left after the last field of
// a fixed-shape encoding.
type TrailingError int

func (n TrailingError) Error() string { return fmt.Sprintf("%d trailing bytes", int(n)) }

// Uint8 reads a one-byte field.
func (d *Decoder) Uint8() (uint8, error) {
	if len(d.buf) < 1 {
		return 0, ErrTruncated
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v, nil
}

// Uint32 reads a four-byte field.
func (d *Decoder) Uint32() (uint32, error) {
	if len(d.buf) < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v, nil
}

// Uint64 reads an eight-byte field.
func (d *Decoder) Uint64() (uint64, error) {
	if len(d.buf) < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, nil
}

// Int64 reads a signed eight-byte field.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Blob reads a length-prefixed byte field into a fresh slice.
func (d *Decoder) Blob() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if uint32(len(d.buf)) < n {
		return nil, ErrTruncated
	}
	out := make([]byte, n)
	copy(out, d.buf[:n])
	d.buf = d.buf[n:]
	return out, nil
}

// Str reads a length-prefixed string field.
func (d *Decoder) Str() (string, error) {
	b, err := d.Blob()
	return string(b), err
}

// Done verifies the encoding was fully consumed.
func (d *Decoder) Done() error {
	if len(d.buf) != 0 {
		return TrailingError(len(d.buf))
	}
	return nil
}
