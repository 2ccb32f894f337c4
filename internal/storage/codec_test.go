package storage

import (
	"bytes"
	"testing"

	"mwskit/internal/attr"
	"mwskit/internal/codec"
)

// TestHostileListCounts: a message record whose tag count claims the
// limit, with nothing behind it, is refused before the tag list is made.
func TestHostileListCounts(t *testing.T) {
	var e codec.Encoder
	e.Str("meter-7")
	e.Str("ELECTRIC-X")
	e.Blob(make([]byte, attr.NonceLen))
	e.Blob(nil)
	e.Blob(nil)
	e.Str("AES-128-GCM")
	e.Int64(0)
	e.Uint64(1 << 16)
	payload := e.Bytes()
	if _, err := decodeMessage(1, payload); err == nil {
		t.Fatal("a record claiming 1<<16 tags with none behind the count is accepted")
	}
	if n := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = decodeMessage(1, payload)
		}
	}).AllocedBytesPerOp(); n >= 4<<10 {
		t.Fatalf("refusing a %d-byte record allocates %d bytes", len(payload), n)
	}
}

// FuzzMessageRecord holds the message record format to a fix-point: any
// payload that decodes must re-encode to bytes that decode and re-encode
// to the same bytes.
func FuzzMessageRecord(f *testing.F) {
	m := &Message{DeviceID: "meter-7", Attribute: "ELECTRIC-X", Nonce: attr.Nonce{9}, U: []byte("u"),
		Ciphertext: bytes.Repeat([]byte{5}, 32), Scheme: "AES-128-GCM", Timestamp: 1278000000, Tags: [][]byte{[]byte("tag")}}
	f.Add(m.encode())
	f.Add((&Message{}).encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMessage(1, data)
		if err != nil {
			return
		}
		enc := m.encode()
		m2, err := decodeMessage(1, enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded record: %v", err)
		}
		if !bytes.Equal(m2.encode(), enc) {
			t.Fatal("the record encoding is not a fix-point")
		}
	})
}
