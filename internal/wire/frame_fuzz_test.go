package wire

import (
	"bytes"
	"testing"

	"mwskit/internal/obsv"
)

// FuzzReadFrame drives the framing layer with arbitrary bytes: whatever
// parses must survive a write/read round trip unchanged. CI runs this as
// a fuzz smoke stage; `go test` replays the seed corpus.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []Frame{
		{Type: TPing},
		{Type: TDeposit, Payload: []byte("payload")},
		{Type: TError, Payload: (&ErrorMsg{Code: CodeAuth, Message: "bad mac"}).Marshal()},
		{Type: TDeposit, Payload: []byte("traced"), Trace: obsv.TraceContext{TraceID: 7, SpanID: 9}},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, fr); err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		back, err := ReadFrame(&out)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded frame: %v", err)
		}
		if back.Type != fr.Type || !bytes.Equal(back.Payload, fr.Payload) || back.Trace != fr.Trace {
			t.Fatalf("round trip changed the frame: %v != %v", back, fr)
		}
	})
}

// FuzzDepositRequestCodec checks the deposit codec reaches a fix-point:
// any payload that decodes must re-encode to a stable byte string that
// decodes again.
func FuzzDepositRequestCodec(f *testing.F) {
	valid := (&DepositRequest{
		DeviceID:   "meter-7",
		Timestamp:  1278000000,
		Attribute:  "ELECTRIC-X",
		Nonce:      bytes.Repeat([]byte{9}, 16),
		U:          bytes.Repeat([]byte{4}, 67),
		Ciphertext: bytes.Repeat([]byte{5}, 128),
		Scheme:     "AES-128-GCM",
		Tags:       [][]byte{[]byte("tag")},
		MAC:        bytes.Repeat([]byte{6}, 32),
	}).Marshal()
	f.Add(valid)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalDepositRequest(data)
		if err != nil {
			return
		}
		enc := r.Marshal()
		r2, err := UnmarshalDepositRequest(enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded deposit: %v", err)
		}
		if !bytes.Equal(r2.Marshal(), enc) {
			t.Fatal("deposit encoding is not a fix-point")
		}
	})
}

// FuzzTraceResponseCodec drives the span-record codec to a fix-point:
// any payload that decodes must re-encode to a stable byte string that
// decodes again — the TTrace introspection op faces untrusted peers
// like every other decoder.
func FuzzTraceResponseCodec(f *testing.F) {
	valid := (&TraceResponse{Spans: []obsv.SpanRecord{{
		TraceID: 1, SpanID: 2, ParentID: 3,
		Service: "mws", Name: "Deposit",
		Attrs: []obsv.Label{{Key: "device", Value: "meter-7"}},
	}}}).Marshal()
	f.Add(valid)
	f.Add((&TraceResponse{}).Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalTraceResponse(data)
		if err != nil {
			return
		}
		enc := r.Marshal()
		r2, err := UnmarshalTraceResponse(enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded trace response: %v", err)
		}
		if !bytes.Equal(r2.Marshal(), enc) {
			t.Fatal("trace response encoding is not a fix-point")
		}
	})
}

// FuzzStatsResponseCodec checks the counter-extended stats codec,
// including the optional trailing counter/gauge block.
func FuzzStatsResponseCodec(f *testing.F) {
	valid := (&StatsResponse{
		Ops:      []OpStat{{Op: "Deposit", Requests: 3, Errors: 1, MeanNs: 5}},
		Counters: []obsv.Sample{{Name: "pairing_ops", Labels: []obsv.Label{{Key: "op", Value: "Deposit"}}, Value: 9}},
		Gauges:   []obsv.Sample{{Name: "wal_fsync_p99_ns", Value: 100}},
	}).Marshal()
	f.Add(valid)
	f.Add((&StatsResponse{Ops: []OpStat{{Op: "Ping"}}}).Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalStatsResponse(data)
		if err != nil {
			return
		}
		enc := r.Marshal()
		r2, err := UnmarshalStatsResponse(enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded stats response: %v", err)
		}
		if !bytes.Equal(r2.Marshal(), enc) {
			t.Fatal("stats response encoding is not a fix-point")
		}
	})
}

// FuzzRetrieveRequestCodec is the retrieval-side twin of
// FuzzDepositRequestCodec.
func FuzzRetrieveRequestCodec(f *testing.F) {
	valid := (&RetrieveRequest{
		RC:       "c-services",
		AuthBlob: bytes.Repeat([]byte{1}, 48),
		FromSeq:  42,
		Limit:    7,
		Trapdoor: []byte("td"),
	}).Marshal()
	f.Add(valid)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalRetrieveRequest(data)
		if err != nil {
			return
		}
		enc := r.Marshal()
		r2, err := UnmarshalRetrieveRequest(enc)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded retrieve: %v", err)
		}
		if !bytes.Equal(r2.Marshal(), enc) {
			t.Fatal("retrieve encoding is not a fix-point")
		}
	})
}
