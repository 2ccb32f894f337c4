package codec

import (
	"bytes"
	"errors"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.Uint8(7)
	e.Uint32(0xDEADBEEF)
	e.Uint64(1 << 60)
	e.Int64(-42)
	e.Blob([]byte{1, 2, 3})
	e.Str("hello")
	e.Blob(nil)

	d := NewDecoder(e.Bytes())
	if v, err := d.Uint8(); err != nil || v != 7 {
		t.Fatalf("Uint8 = %v, %v", v, err)
	}
	if v, err := d.Uint32(); err != nil || v != 0xDEADBEEF {
		t.Fatalf("Uint32 = %v, %v", v, err)
	}
	if v, err := d.Uint64(); err != nil || v != 1<<60 {
		t.Fatalf("Uint64 = %v, %v", v, err)
	}
	if v, err := d.Int64(); err != nil || v != -42 {
		t.Fatalf("Int64 = %v, %v", v, err)
	}
	if v, err := d.Blob(); err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Blob = %v, %v", v, err)
	}
	if v, err := d.Str(); err != nil || v != "hello" {
		t.Fatalf("Str = %v, %v", v, err)
	}
	if v, err := d.Blob(); err != nil || len(v) != 0 {
		t.Fatalf("empty Blob = %v, %v", v, err)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestCodecTruncation(t *testing.T) {
	d := NewDecoder([]byte{0, 0, 0, 9, 1}) // blob claims 9 bytes, has 1
	if _, err := d.Blob(); !errors.Is(err, ErrTruncated) {
		t.Fatal("truncated blob accepted")
	}
	d2 := NewDecoder([]byte{1, 2})
	if _, err := d2.Uint32(); !errors.Is(err, ErrTruncated) {
		t.Fatal("short uint32 accepted")
	}
	d3 := NewDecoder([]byte{1})
	if err := d3.Done(); err != TrailingError(1) {
		t.Fatal("trailing bytes accepted")
	}
}
