package wire

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"mwskit/internal/obsv"
)

func TestRouterDispatchAndUnknownType(t *testing.T) {
	r := NewRouter()
	r.handle(TPing, func(ctx context.Context, f Frame) Frame {
		return Frame{Type: TPong, Payload: f.Payload}
	})
	resp := r.Handle(context.Background(), Frame{Type: TPing, Payload: []byte("x")})
	if resp.Type != TPong || !bytes.Equal(resp.Payload, []byte("x")) {
		t.Fatalf("ping response: %+v", resp)
	}
	resp = r.Handle(context.Background(), Frame{Type: TDeposit})
	em := decodeError(t, resp)
	if em.Code != CodeBadRequest {
		t.Fatalf("unknown type code = %d", em.Code)
	}
}

func decodeError(t *testing.T, f Frame) *ErrorMsg {
	t.Helper()
	if f.Type != TError {
		t.Fatalf("frame type %s, want Error", f.Type)
	}
	em, err := UnmarshalErrorMsg(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return em
}

// TestTypedRoute exercises the generic adapter: decode, invoke, encode,
// and the three error mappings (bad payload, *ErrorMsg, opaque error).
func TestTypedRoute(t *testing.T) {
	r := NewRouter()
	Route(r, OpRetrieve, func(ctx context.Context, req *RetrieveRequest) (*RetrieveResponse, error) {
		switch req.RC {
		case "denied":
			return nil, &ErrorMsg{Code: CodeAuth, Message: "authentication failed"}
		case "broken":
			return nil, errors.New("disk exploded: secret path /var/db")
		}
		return &RetrieveResponse{TokenBlob: []byte(req.RC)}, nil
	})
	ctx := context.Background()

	resp := r.Handle(ctx, Frame{Type: TRetrieve, Payload: (&RetrieveRequest{RC: "alice"}).Marshal()})
	if resp.Type != TRetrieveResp {
		t.Fatalf("resp type %s", resp.Type)
	}
	rr, err := UnmarshalRetrieveResponse(resp.Payload)
	if err != nil || string(rr.TokenBlob) != "alice" {
		t.Fatalf("decoded %+v, %v", rr, err)
	}

	if em := decodeError(t, r.Handle(ctx, Frame{Type: TRetrieve, Payload: []byte{1}})); em.Code != CodeBadRequest {
		t.Fatalf("garbage payload code = %d", em.Code)
	}
	if em := decodeError(t, r.Handle(ctx, Frame{Type: TRetrieve, Payload: (&RetrieveRequest{RC: "denied"}).Marshal()})); em.Code != CodeAuth {
		t.Fatalf("ErrorMsg passthrough code = %d", em.Code)
	}
	em := decodeError(t, r.Handle(ctx, Frame{Type: TRetrieve, Payload: (&RetrieveRequest{RC: "broken"}).Marshal()}))
	if em.Code != CodeInternal {
		t.Fatalf("opaque error code = %d", em.Code)
	}
	if em.Message != "internal error" {
		t.Fatalf("internal detail leaked to peer: %q", em.Message)
	}
}

func TestMiddlewareOrder(t *testing.T) {
	r := NewRouter()
	var trace []string
	mw := func(name string) Middleware {
		return func(next Handler) Handler {
			return HandlerFunc(func(ctx context.Context, f Frame) Frame {
				trace = append(trace, name)
				return next.Handle(ctx, f)
			})
		}
	}
	// Route registered before Use must still be wrapped.
	r.handle(TPing, func(ctx context.Context, f Frame) Frame {
		trace = append(trace, "handler")
		return Frame{Type: TPong}
	})
	r.Use(mw("outer"), mw("inner"))
	r.Handle(context.Background(), Frame{Type: TPing})
	want := []string{"outer", "inner", "handler"}
	if len(trace) != 3 || trace[0] != want[0] || trace[1] != want[1] || trace[2] != want[2] {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	r := NewRouter()
	r.Use(Recover(nil))
	r.handle(TPing, func(ctx context.Context, f Frame) Frame { panic("route bug") })
	if em := decodeError(t, r.Handle(context.Background(), Frame{Type: TPing})); em.Code != CodeInternal {
		t.Fatalf("panic code = %d", em.Code)
	}
}

func TestCtxErr(t *testing.T) {
	if em := CtxErr(context.Background()); em != nil {
		t.Fatalf("live ctx: %v", em)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if em := CtxErr(canceled); em == nil || em.Code != CodeUnavailable {
		t.Fatalf("canceled ctx: %v", em)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if em := CtxErr(expired); em == nil || em.Code != CodeTimeout {
		t.Fatalf("expired ctx: %v", em)
	}
}

// TestSlowHandlerCutOff is the acceptance check for the request deadline:
// a handler that would run for minutes is abandoned at the configured
// RequestTimeout and the client promptly receives a structured timeout
// error frame, end to end through a real server and client.
func TestSlowHandlerCutOff(t *testing.T) {
	r := NewRouter()
	r.Use(WithTimeout(50 * time.Millisecond))
	release := make(chan struct{})
	r.handle(TPing, func(ctx context.Context, f Frame) Frame {
		select {
		case <-release: // never in this test
			return Frame{Type: TPong}
		case <-ctx.Done():
			<-release // keep the abandoned goroutine alive past the response
			return Frame{Type: TPong}
		}
	})
	defer close(release)

	srv := NewServer(r, nil)
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

	start := time.Now()
	_, err = c.Do(Frame{Type: TPing})
	elapsed := time.Since(start)
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != CodeTimeout {
		t.Fatalf("err = %v, want CodeTimeout ErrorMsg", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout response took %v; handler was not cut off", elapsed)
	}
	// The connection survives a timed-out request.
	r.handle(TParams, func(ctx context.Context, f Frame) Frame { return Frame{Type: TParamsResp} })
	if resp, err := c.Do(Frame{Type: TParams}); err != nil || resp.Type != TParamsResp {
		t.Fatalf("post-timeout request: %+v, %v", resp, err)
	}
}

// TestAbandonedHandlerExits: a handler cut off by WithTimeout finishes on
// its own goroutine, and that goroutine must then exit instead of
// blocking forever on handing its late reply to a caller that has already
// answered.
func TestAbandonedHandlerExits(t *testing.T) {
	release := make(chan struct{})
	h := WithTimeout(time.Millisecond)(HandlerFunc(func(ctx context.Context, f Frame) Frame {
		<-ctx.Done()
		<-release
		return Frame{Type: TPong}
	}))
	if em := decodeError(t, h.Handle(context.Background(), Frame{Type: TPing})); em.Code != CodeTimeout {
		t.Fatalf("cut-off handler code = %d, want CodeTimeout", em.Code)
	}
	close(release)

	// Count the goroutines running one of WithTimeout's closures (one dump
	// block each; inlining may prefix the closure's name with its caller's).
	running := func() int {
		buf := make([]byte, 1<<20)
		n := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "WithTimeout.func") {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for running() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d abandoned handler goroutines still running", running())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWithTimeoutDisabled(t *testing.T) {
	r := NewRouter()
	r.Use(WithTimeout(0))
	r.handle(TPing, func(ctx context.Context, f Frame) Frame {
		if _, ok := ctx.Deadline(); ok {
			t.Error("deadline installed despite 0 timeout")
		}
		return Frame{Type: TPong}
	})
	if resp := r.Handle(context.Background(), Frame{Type: TPing}); resp.Type != TPong {
		t.Fatalf("resp: %+v", resp)
	}
}

func TestInstrumentAndStatsRoute(t *testing.T) {
	reg := obsv.NewRegistry()
	r := NewRouter()
	r.Use(Instrument(reg))
	r.handle(TPing, func(ctx context.Context, f Frame) Frame {
		if len(f.Payload) > 0 {
			return ErrorFrame(CodeBadRequest, "no payload allowed")
		}
		return Frame{Type: TPong}
	})
	RegisterStats(r, reg)

	ctx := context.Background()
	r.Handle(ctx, Frame{Type: TPing})
	r.Handle(ctx, Frame{Type: TPing})
	r.Handle(ctx, Frame{Type: TPing, Payload: []byte("x")}) // counted as error
	resp := r.Handle(ctx, Frame{Type: TStats})
	if resp.Type != TStatsResp {
		t.Fatalf("stats resp type %s", resp.Type)
	}
	stats, err := UnmarshalStatsResponse(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]OpStat{}
	for _, op := range stats.Ops {
		byOp[op.Op] = op
	}
	ping, ok := byOp["Ping"]
	if !ok {
		t.Fatalf("no Ping op in %+v", stats.Ops)
	}
	if ping.Requests != 3 || ping.Errors != 1 {
		t.Fatalf("ping stats: %+v", ping)
	}
	if ping.MaxNs <= 0 || ping.P50Ns <= 0 {
		t.Fatalf("latency fields not populated: %+v", ping)
	}
}

func TestStatsResponseRoundTrip(t *testing.T) {
	r := &StatsResponse{Ops: []OpStat{
		{Op: "Deposit", Requests: 10, Errors: 2, MinNs: 1, MeanNs: 5, P50Ns: 4, P90Ns: 8, P99Ns: 9, MaxNs: 12},
		{Op: "Retrieve", Requests: 3},
	}}
	back, err := UnmarshalStatsResponse(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Ops) != 2 || back.Ops[0] != r.Ops[0] || back.Ops[1] != r.Ops[1] {
		t.Fatalf("round trip mismatch: %+v", back.Ops)
	}
	if _, err := UnmarshalStatsResponse([]byte{1, 2}); err == nil {
		t.Fatal("garbage decoded")
	}
}
