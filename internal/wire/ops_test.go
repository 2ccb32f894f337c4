package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mwskit/internal/obsv"
)

// samples holds one valid request and response per op, by op name. An op
// added to the table without a row here fails every test that walks the
// table, so a new exchange cannot skip decoder coverage.
var samples = map[string]struct{ req, resp Message }{
	"Ping": {&Empty{}, &Empty{}},
	"Deposit": {&DepositRequest{
		DeviceID:   "meter-7",
		Timestamp:  1278000000,
		Attribute:  "ELECTRIC-X",
		Nonce:      bytes.Repeat([]byte{9}, 16),
		U:          bytes.Repeat([]byte{4}, 67),
		Ciphertext: bytes.Repeat([]byte{5}, 128),
		Scheme:     "AES-128-GCM",
		Tags:       [][]byte{[]byte("tag")},
		MAC:        bytes.Repeat([]byte{6}, 32),
	}, &DepositResponse{Seq: 42}},
	"Retrieve": {
		&RetrieveRequest{RC: "c-services", AuthBlob: bytes.Repeat([]byte{1}, 48), FromSeq: 42, Limit: 7, Trapdoor: []byte("td")},
		&RetrieveResponse{TokenBlob: []byte("token"), Items: []MessageItem{{
			Seq: 1, AID: 2, Nonce: bytes.Repeat([]byte{9}, 16), U: []byte("u"), Ciphertext: []byte("c"),
			Scheme: "AES-128-GCM", DeviceID: "meter-7", Timestamp: 1278000000,
		}}},
	},
	"Extract": {
		&ExtractRequest{RC: "c-services", TicketBlob: []byte("ticket"), Authenticator: []byte("auth"),
			Items: []ExtractItem{{AID: 2, Nonce: bytes.Repeat([]byte{9}, 16)}}},
		&ExtractResponse{SealedKeys: [][]byte{[]byte("sealed")}},
	},
	"Params": {&Empty{}, &ParamsResponse{Preset: "bf80", PPub: []byte("ppub")}},
	"Trapdoor": {
		&TrapdoorRequest{RC: "c-services", TicketBlob: []byte("ticket"), Authenticator: []byte("auth"), SealedKeyword: []byte("kw")},
		&TrapdoorResponse{SealedTrapdoor: []byte("td")},
	},
	"Stats": {&Empty{}, &StatsResponse{
		Ops:      []OpStat{{Op: "Deposit", Requests: 3, Errors: 1, MeanNs: 5}},
		Counters: []obsv.Sample{{Name: "pairing_ops", Labels: []obsv.Label{{Key: "op", Value: "Deposit"}}, Value: 9}},
		Gauges:   []obsv.Sample{{Name: "wal_fsync_p99_ns", Value: 100}},
	}},
	"Trace": {&TraceRequest{TraceID: 7, Limit: 3}, &TraceResponse{Spans: []obsv.SpanRecord{{
		TraceID: 1, SpanID: 2, ParentID: 3, Service: "mws", Name: "Deposit",
		Attrs: []obsv.Label{{Key: "device", Value: "meter-7"}},
	}}}},
}

func sampleOf(t testing.TB, op OpInfo) struct{ req, resp Message } {
	t.Helper()
	s, ok := samples[op.Name]
	if !ok {
		t.Fatalf("op %s has no sample messages: add a row to samples", op.Name)
	}
	return s
}

// TestOpTable holds every declared exchange to the protocol's conventions
// (what the wireops analyzer used to police from outside): request types
// are odd and unique, the response type is the request type + 1, names are
// unique and non-empty and are what Type.String prints, and each decoder
// accepts its own valid encoding and rejects every truncation of it and a
// byte appended to it.
func TestOpTable(t *testing.T) {
	if err := checkOpTable(ops); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Req.String() != op.Name || op.Resp.String() != op.RespName {
			t.Errorf("%s: Type.String() = %q / %q, table says %q / %q", op.Name, op.Req, op.Resp, op.Name, op.RespName)
		}
		s := sampleOf(t, op)
		for _, side := range []struct {
			what   string
			valid  []byte
			decode func([]byte) (Message, error)
		}{{"Request", s.req.Marshal(), op.DecodeReq}, {"Response", s.resp.Marshal(), op.DecodeResp}} {
			if _, err := side.decode(side.valid); err != nil {
				t.Errorf("%s%s rejects its own encoding: %v", op.Name, side.what, err)
			}
			for cut := 0; cut < len(side.valid); cut++ {
				if _, err := side.decode(side.valid[:cut]); err == nil {
					t.Errorf("%s%s accepts its encoding truncated to %d of %d bytes", op.Name, side.what, cut, len(side.valid))
				}
			}
			if _, err := side.decode(append(side.valid[:len(side.valid):len(side.valid)], 0)); err == nil {
				t.Errorf("%s%s accepts a trailing byte", op.Name, side.what)
			}
		}
	}

	// Seeded violations: each convention, broken in a copy of the table,
	// must be caught.
	for name, breakIt := range map[string]func(ops []OpInfo) []OpInfo{
		"even request type": func(ops []OpInfo) []OpInfo { ops[1].Req, ops[1].Resp = 18, 19; return ops },
		"unpaired response": func(ops []OpInfo) []OpInfo { ops[1].Resp = ops[1].Req + 3; return ops },
		"duplicate type":    func(ops []OpInfo) []OpInfo { return append(ops, ops[2]) },
		"duplicate name":    func(ops []OpInfo) []OpInfo { ops[1].Name = ops[0].Name; return ops },
		"empty name":        func(ops []OpInfo) []OpInfo { ops[1].RespName = ""; return ops },
		"missing decoder":   func(ops []OpInfo) []OpInfo { ops[1].DecodeResp = nil; return ops },
	} {
		if err := checkOpTable(breakIt(slices.Clone(ops))); err == nil {
			t.Errorf("seeded violation %q passes the table check", name)
		}
	}
}

func checkOpTable(ops []OpInfo) error {
	types := map[Type]string{TError: "Error"}
	names := map[string]bool{"Error": true}
	for _, op := range ops {
		if op.Req%2 != 1 || op.Resp != op.Req+1 {
			return fmt.Errorf("%s: types %d/%d: requests are odd, the response is the request + 1", op.Name, op.Req, op.Resp)
		}
		if op.DecodeReq == nil || op.DecodeResp == nil {
			return fmt.Errorf("%s: missing decoder", op.Name)
		}
		for typ, name := range map[Type]string{op.Req: op.Name, op.Resp: op.RespName} {
			if name == "" || names[name] {
				return fmt.Errorf("type %d: name %q is empty or taken", typ, name)
			}
			if other, dup := types[typ]; dup {
				return fmt.Errorf("type %d is both %s and %s", typ, other, name)
			}
			types[typ], names[name] = name, true
		}
	}
	return nil
}

// goldenFrames reads testdata/frames.golden: the bytes the parent
// commit's WriteFrame (two code paths, chosen by a per-connection handshake)
// produced for one untraced and one traced frame, and its hand-written
// Type.String() for values 0–17. Never regenerated.
func goldenFrames(t *testing.T) (frames map[string][]byte, typeNames map[Type]string) {
	t.Helper()
	raw, err := os.ReadFile("testdata/frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	frames, typeNames = map[string][]byte{}, map[Type]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var v int
		var name string
		if n, _ := fmt.Sscanf(line, "type %d %s", &v, &name); n == 2 {
			typeNames[Type(v)] = name
			continue
		}
		key, hexed, _ := strings.Cut(line, " ")
		if frames[key], err = hex.DecodeString(hexed); err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
	}
	if len(frames) != 2 || len(typeNames) != 18 {
		t.Fatalf("golden holds %d frames and %d type names, want 2 and 18", len(frames), len(typeNames))
	}
	return frames, typeNames
}

var (
	goldenPayload = []byte("golden payload")
	goldenTrace   = obsv.TraceContext{TraceID: 0x1122334455667788, SpanID: 0x99AABBCCDDEEFF00}
)

// TestFramesGolden: the one writer and the one reader reproduce the
// parent's frames byte for byte in both directions, and the table-derived
// type names are the parent's.
func TestFramesGolden(t *testing.T) {
	frames, typeNames := goldenFrames(t)
	for name, f := range map[string]Frame{
		"untraced": {Type: TDeposit, Payload: goldenPayload},
		"traced":   {Type: TDeposit, Payload: goldenPayload, Trace: goldenTrace},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), frames[name]) {
			t.Errorf("%s frame writes\n %x\nthe golden is\n %x", name, buf.Bytes(), frames[name])
		}
		got, err := ReadFrame(bytes.NewReader(frames[name]))
		if err != nil {
			t.Fatalf("%s golden does not read: %v", name, err)
		}
		if got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) || got.Trace != f.Trace {
			t.Errorf("%s golden reads as %+v, want %+v", name, got, f)
		}
	}
	for v, want := range typeNames {
		if got := v.String(); got != want {
			t.Errorf("Type(%d).String() = %q, the parent printed %q", v, got, want)
		}
	}
}

// rawMsg is a payload that marshals to itself, so a test can put chosen
// bytes through Call.
type rawMsg []byte

func (m rawMsg) Marshal() []byte { return m }

// rawDeposit is the Deposit exchange over raw payloads, built outside the
// table.
var rawDeposit = &Op[rawMsg, rawMsg]{
	OpInfo:     OpInfo{Name: "Deposit", Req: TDeposit, Resp: TDepositResp, span: "rpc.deposit"},
	decodeResp: func(b []byte) (rawMsg, error) { return b, nil },
}

// tap forwards one client connection to addr and records what the client
// wrote to the socket.
type tap struct {
	net.Listener
	mu   sync.Mutex
	sent bytes.Buffer
}

func (tp *tap) Write(p []byte) (int, error) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.sent.Write(p)
}

func newTap(t *testing.T, addr string) *tap {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{Listener: l}
	t.Cleanup(func() { l.Close() })
	go func() {
		down, err := l.Accept()
		if err != nil {
			return
		}
		defer down.Close()
		up, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer up.Close()
		go io.Copy(down, up)
		io.Copy(up, io.TeeReader(down, tp))
	}()
	return tp
}

// TestCall drives the single client call path against a live Server: an
// untraced context puts exactly the golden MWS1 bytes on the socket, a
// traced one the extended header carrying the rpc span's own context, and
// both get the decoded response; a wrong response type and a refusal are
// reported, not returned.
func TestCall(t *testing.T) {
	frames, _ := goldenFrames(t)
	seen := make(chan Frame, 8)
	srv := NewServer(HandlerFunc(func(ctx context.Context, f Frame) Frame {
		seen <- f
		switch string(f.Payload) {
		case "refuse":
			return ErrorFrame(CodeAuth, "no")
		case "confuse":
			return Frame{Type: TPong}
		}
		return Frame{Type: TDepositResp, Payload: append([]byte("ack:"), f.Payload...)}
	}), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tp := newTap(t, addr.String())
	c, err := Dial(tp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := Call(context.Background(), c, rawDeposit, rawMsg(goldenPayload))
	if err != nil || string(resp) != "ack:golden payload" {
		t.Fatalf("untraced Call = %q, %v", resp, err)
	}
	if f := <-seen; f.Trace.Valid() {
		t.Fatalf("untraced Call carried trace %+v", f.Trace)
	}
	tp.mu.Lock()
	sent := append([]byte(nil), tp.sent.Bytes()...)
	tp.mu.Unlock()
	if !bytes.Equal(sent, frames["untraced"]) {
		t.Fatalf("untraced Call put\n %x\non the socket, the golden is\n %x", sent, frames["untraced"])
	}

	tracer := obsv.NewTracer("client", 16, 0, nil)
	ctx, root := tracer.StartRoot(context.Background(), "op")
	resp, err = Call(ctx, c, rawDeposit, rawMsg(goldenPayload))
	root.End()
	if err != nil || string(resp) != "ack:golden payload" {
		t.Fatalf("traced Call = %q, %v", resp, err)
	}
	var rpcSpan uint64
	for _, s := range tracer.Snapshot(0, root.Context().TraceID) {
		if s.Name == "rpc.deposit" {
			rpcSpan = s.SpanID
		}
	}
	want := obsv.TraceContext{TraceID: root.Context().TraceID, SpanID: rpcSpan}
	if f := <-seen; rpcSpan == 0 || f.Trace != want {
		t.Fatalf("server saw trace %+v, want the rpc.deposit span's %+v", f.Trace, want)
	}
	tp.mu.Lock()
	sent = append([]byte(nil), tp.sent.Bytes()[len(sent):]...)
	tp.mu.Unlock()
	if !bytes.HasPrefix(sent, Magic2[:]) || binary.BigEndian.Uint64(sent[headerLenExt:]) != want.TraceID {
		t.Fatalf("traced Call put %x on the socket", sent)
	}

	var em *ErrorMsg
	if _, err := Call(ctx, c, rawDeposit, rawMsg("refuse")); !errors.As(err, &em) || em.Code != CodeAuth {
		t.Fatalf("refused Call = %v, want the server's ErrorMsg", err)
	}
	if _, err := Call(ctx, c, rawDeposit, rawMsg("confuse")); err == nil || !strings.Contains(err.Error(), "unexpected response type Pong") {
		t.Fatalf("mistyped response: err = %v", err)
	}
	// Neither is a transport failure: the connection stays usable.
	if _, err := Call(ctx, c, rawDeposit, rawMsg("again")); err != nil {
		t.Fatalf("Call after a refusal: %v", err)
	}
}

// TestClientBrokenAfterTimeout: a round trip cut off by its deadline
// leaves the first request's reply in flight. The next call must fail
// with the transport error, not return that late reply as its own answer.
func TestClientBrokenAfterTimeout(t *testing.T) {
	var calls int
	srv := NewServer(HandlerFunc(func(ctx context.Context, f Frame) Frame {
		if calls++; calls == 1 {
			time.Sleep(150 * time.Millisecond)
		}
		return Frame{Type: TDepositResp, Payload: append([]byte("reply to "), f.Payload...)}
	}), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = Call(ctx, c, rawDeposit, rawMsg("first"))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("first Call: err = %v, want the deadline's timeout", err)
	}
	time.Sleep(300 * time.Millisecond) // the late reply is now in the socket buffer
	resp, err := Call(context.Background(), c, rawDeposit, rawMsg("second"))
	if err == nil {
		t.Fatalf("second Call returned %q after the first timed out", resp)
	}
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("second Call: err = %v, want it to carry the first call's transport error", err)
	}
	if _, err := c.Do(Frame{Type: TDeposit}); err == nil {
		t.Fatal("Do on a broken client succeeded")
	}
}
