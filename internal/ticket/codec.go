package ticket

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Minimal length-prefixed binary codec, mirroring internal/storage's record
// codec (kept package-local to avoid exporting encoding internals).

type binEnc struct{ buf []byte }

func (e *binEnc) putUint64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

func (e *binEnc) putBytes(b []byte) {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	e.buf = append(e.buf, l[:]...)
	e.buf = append(e.buf, b...)
}

func (e *binEnc) putString(s string) { e.putBytes([]byte(s)) }

type binDec struct{ buf []byte }

var errTruncated = errors.New("ticket: truncated encoding")

func (d *binDec) uint64() (uint64, error) {
	if len(d.buf) < 8 {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, nil
}

func (d *binDec) bytes() ([]byte, error) {
	if len(d.buf) < 4 {
		return nil, errTruncated
	}
	n := binary.BigEndian.Uint32(d.buf)
	if uint32(len(d.buf)-4) < n {
		return nil, errTruncated
	}
	out := make([]byte, n)
	copy(out, d.buf[4:4+n])
	d.buf = d.buf[4+n:]
	return out, nil
}

func (d *binDec) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

func (d *binDec) done() error {
	if len(d.buf) != 0 {
		return fmt.Errorf("ticket: %d trailing bytes", len(d.buf))
	}
	return nil
}
