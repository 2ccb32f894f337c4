package wire

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mwskit/internal/codec"
	"mwskit/internal/obsv"
)

func TestTraceRequestRoundTrip(t *testing.T) {
	r := &TraceRequest{TraceID: 0xCAFEBABE12345678, Limit: 64}
	got, err := UnmarshalTraceRequest(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("round trip = %+v, want %+v", got, r)
	}
	zero, err := UnmarshalTraceRequest((&TraceRequest{}).Marshal())
	if err != nil || zero.TraceID != 0 || zero.Limit != 0 {
		t.Fatalf("zero round trip = %+v, %v", zero, err)
	}
}

func TestTraceResponseRoundTrip(t *testing.T) {
	start := time.Unix(1278000000, 987654321).UTC()
	r := &TraceResponse{Spans: []obsv.SpanRecord{
		{
			TraceID:  1,
			SpanID:   2,
			ParentID: 3,
			Service:  "mws",
			Name:     "Deposit",
			Start:    start,
			Duration: 1500 * time.Microsecond,
			Err:      "deadline exceeded",
			Attrs:    []obsv.Label{{Key: "device", Value: "meter-7"}, {Key: "bytes", Value: "128"}},
		},
		{TraceID: 1, SpanID: 4, ParentID: 2, Service: "mws", Name: "wal.append", Start: start, Duration: time.Millisecond},
	}}
	got, err := UnmarshalTraceResponse(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
	empty, err := UnmarshalTraceResponse((&TraceResponse{}).Marshal())
	if err != nil || len(empty.Spans) != 0 {
		t.Fatalf("empty round trip = %+v, %v", empty, err)
	}
}

func TestTraceResponseRejectsImplausibleCounts(t *testing.T) {
	var e codec.Encoder
	e.Uint32(maxTraceSpans + 1)
	if _, err := UnmarshalTraceResponse(e.Bytes()); err == nil {
		t.Fatal("implausible span count accepted")
	}
}

func TestStatsResponseCounterRoundTrip(t *testing.T) {
	r := &StatsResponse{
		Ops: []OpStat{{Op: "Deposit", Requests: 10, Errors: 2, MinNs: 1, MeanNs: 5, P50Ns: 4, P90Ns: 8, P99Ns: 9, MaxNs: 12}},
		Counters: []obsv.Sample{
			{Name: "errors_by_code", Labels: []obsv.Label{{Key: "code", Value: "2"}, {Key: "op", Value: "Deposit"}}, Value: 2},
			{Name: "pairing_ops", Value: 42},
		},
		Gauges: []obsv.Sample{{Name: "wal_fsync_p99_ns", Value: 123456}},
	}
	got, err := UnmarshalStatsResponse(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

// TestStatsResponseGolden holds the codec to testdata/tstats_v2.golden:
// the payload (ops, labeled counters, gauges) of a fixed value as the
// encoder of the commit before obsv.Sample replaced wire's own sample and
// label types wrote it. The file is never regenerated; both directions
// must hold byte for byte.
func TestStatsResponseGolden(t *testing.T) {
	values := map[string]*StatsResponse{
		"v2": {
			Ops: []OpStat{
				{Op: "Deposit", Requests: 10, Errors: 2, MinNs: 1000, MeanNs: 5000, P50Ns: 4000, P90Ns: 8000, P99Ns: 9000, MaxNs: 12000},
				{Op: "Retrieve", Requests: 3},
			},
			Counters: []obsv.Sample{
				{Name: "errors_by_code", Labels: []obsv.Label{{Key: "code", Value: "2"}, {Key: "op", Value: "Deposit"}}, Value: 2},
				{Name: "pairing_ops", Value: 42},
				{Name: "storage_shard_appends", Labels: []obsv.Label{{Key: "shard", Value: "3"}}, Value: 7},
			},
			Gauges: []obsv.Sample{
				{Name: "queue_delta", Labels: []obsv.Label{{Key: "listener", Value: "a\"b\\c\n"}}, Value: -3},
				{Name: "storage_shard_messages", Labels: []obsv.Label{{Key: "shard", Value: "3"}}, Value: 7},
				{Name: "wal_fsync_p99_ns", Value: 123456},
			},
		},
	}
	raw, err := os.ReadFile("testdata/tstats_v2.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(values) {
		t.Fatalf("golden holds %d payloads, want %d", len(lines), len(values))
	}
	for _, line := range lines {
		name, hexed, _ := strings.Cut(line, " ")
		want, err := hex.DecodeString(hexed)
		if err != nil || values[name] == nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
		if got := values[name].Marshal(); !bytes.Equal(got, want) {
			t.Errorf("%s encodes to\n %x\nthe golden is\n %x", name, got, want)
		}
		got, err := UnmarshalStatsResponse(want)
		if err != nil {
			t.Fatalf("%s golden does not decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, values[name]) {
			t.Errorf("%s golden decodes to\n %+v\nwant\n %+v", name, got, values[name])
		}
	}
}

// TestFrameTraceRoundTrip exercises the extended frame header: a frame
// carrying a trace context survives the wire, an untraced frame keeps the
// plain 9-byte header, and unknown header flags are rejected rather than
// silently skipped.
func TestFrameTraceRoundTrip(t *testing.T) {
	tc := obsv.TraceContext{TraceID: 0x1122334455667788, SpanID: 0x99AABBCCDDEEFF00}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TDeposit, Payload: []byte("p"), Trace: tc}); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), Magic2[:]) {
		t.Fatalf("traced frame does not start with the extended magic: %x", buf.Bytes()[:4])
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TDeposit || !bytes.Equal(got.Payload, []byte("p")) || got.Trace != tc {
		t.Fatalf("round trip = %+v", got)
	}

	// Untraced frames must keep the plain header byte for byte (see also
	// TestFramesGolden).
	var v1 bytes.Buffer
	if err := WriteFrame(&v1, Frame{Type: TPing}); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(v1.Bytes(), Magic[:]) {
		t.Fatalf("untraced frame uses extended header: %x", v1.Bytes())
	}

	// An extended header with an unknown flag bit must be rejected: skipping
	// unknown extensions silently would desynchronize the stream.
	raw := append([]byte{}, Magic2[:]...)
	raw = append(raw, byte(TPing), 0x80, 0, 0, 0, 0)
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("unknown header flag accepted")
	}
}

func TestFrameV2Truncation(t *testing.T) {
	var buf bytes.Buffer
	tc := obsv.TraceContext{TraceID: 7, SpanID: 8}
	if err := WriteFrame(&buf, Frame{Type: TDeposit, Payload: []byte("payload"), Trace: tc}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated extended frame of %d bytes accepted", cut)
		}
	}
}
