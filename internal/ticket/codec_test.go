package ticket

import (
	"bytes"
	"testing"

	"mwskit/internal/attr"
	"mwskit/internal/codec"
)

// TestHostileListCounts: a ticket plaintext whose binding count claims
// the limit, with nothing behind it, is refused before the binding list
// is made.
func TestHostileListCounts(t *testing.T) {
	var e codec.Encoder
	e.Str("c-services")
	e.Int64(0)
	e.Uint64(1 << 16)
	payload := e.Bytes()
	if _, err := decodeTicket(payload); err == nil {
		t.Fatal("a ticket claiming 1<<16 bindings with none behind the count is accepted")
	}
	if n := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = decodeTicket(payload)
		}
	}).AllocedBytesPerOp(); n >= 4<<10 {
		t.Fatalf("refusing a %d-byte ticket allocates %d bytes", len(payload), n)
	}
}

// FuzzTicketPlaintext holds the ticket plaintext to a fix-point: any
// plaintext that decodes must re-encode to bytes that decode and
// re-encode to the same bytes.
func FuzzTicketPlaintext(f *testing.F) {
	tk := &Ticket{RC: "c-services", IssuedAt: 1278000000, SessionKey: bytes.Repeat([]byte{0xA5}, SessionKeyLen),
		Bindings: []attr.Binding{{Identity: "c-services", AID: 7, Attribute: "ELECTRIC-APTCOMPLEX-SV-CA"}}}
	f.Add(encode(tk))
	f.Add(encode(&Ticket{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		tk, err := decodeTicket(data)
		if err != nil {
			return
		}
		enc := encode(tk)
		tk2, err := decodeTicket(enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded ticket: %v", err)
		}
		if !bytes.Equal(encode(tk2), enc) {
			t.Fatal("the ticket encoding is not a fix-point")
		}
	})
}
