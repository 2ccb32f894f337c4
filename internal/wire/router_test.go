package wire

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mwskit/internal/obsv"
)

// TestRouterDispatchAndUnknownType: every router answers Ping, and Stats
// with what its count stage recorded; a type it has no route for is
// refused.
func TestRouterDispatchAndUnknownType(t *testing.T) {
	r := NewRouter(obsv.NewRegistry(), nil, 0, nil)
	resp := r.Handle(context.Background(), Frame{Type: TPing})
	if resp.Type != TPong || len(resp.Payload) != 0 {
		t.Fatalf("ping response: %+v", resp)
	}
	resp = r.Handle(context.Background(), Frame{Type: TStats})
	if resp.Type != TStatsResp {
		t.Fatalf("stats resp type %s", resp.Type)
	}
	stats, err := UnmarshalStatsResponse(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Ops) != 1 || stats.Ops[0].Op != "Ping" || stats.Ops[0].Requests != 1 || stats.Ops[0].MaxNs <= 0 {
		t.Fatalf("stats ops %+v, want the one Ping with its latency", stats.Ops)
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
	r := NewRouter(obsv.NewRegistry(), nil, 0, nil,
		Bind(OpRetrieve, func(ctx context.Context, req *RetrieveRequest) (*RetrieveResponse, error) {
			switch req.RC {
			case "denied":
				return nil, &ErrorMsg{Code: CodeAuth, Message: "authentication failed"}
			case "broken":
				return nil, errors.New("disk exploded: secret path /var/db")
			}
			return &RetrieveResponse{TokenBlob: []byte(req.RC)}, nil
		}))
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

// TestPipelineCountsEveryOutcome sends one request per outcome to a served
// Router and reads what its count and span stages recorded. The count
// stage sits outside the deadline, so a cut-off request is counted as
// CodeTimeout when it is answered, and the router's own recover sits
// inside both, so a panic — on the request's goroutine or on the
// deadline's — is counted and traced as CodeInternal rather than
// unwinding past them to the server's backstop. A frame of a type no op
// declares is answered before any stage runs.
func TestPipelineCountsEveryOutcome(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	handle := func(ctx context.Context, req *RetrieveRequest) (*RetrieveResponse, error) {
		switch req.RC {
		case "denied":
			return nil, &ErrorMsg{Code: CodeAuth, Message: "authentication failed"}
		case "panic":
			panic("route bug")
		case "slow":
			<-release // past the deadline and past every assertion below
		}
		return &RetrieveResponse{}, nil
	}
	retrieve := func(rc string) Frame {
		return Frame{Type: TRetrieve, Payload: (&RetrieveRequest{RC: rc}).Marshal()}
	}
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		req     Frame
		code    uint32 // the refusal's code; 0 for a success
		routed  bool
	}{
		{"success", 0, retrieve("alice"), 0, true},
		{"error msg", 0, retrieve("denied"), CodeAuth, true},
		{"undecodable", 0, Frame{Type: TRetrieve, Payload: []byte{1}}, CodeBadRequest, true},
		{"panic", 0, retrieve("panic"), CodeInternal, true},
		{"panic under a deadline", time.Minute, retrieve("panic"), CodeInternal, true},
		{"past the deadline", 20 * time.Millisecond, retrieve("slow"), CodeTimeout, true},
		{"unknown type", 0, Frame{Type: TDeposit}, CodeBadRequest, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obsv.NewRegistry()
			tracer := obsv.NewTracer("test", 64, 0, nil)
			srv := NewServer(NewRouter(reg, tracer, tc.timeout, nil, Bind(OpRetrieve, handle)), nil)
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

			_, err = c.Do(tc.req)
			var em *ErrorMsg
			if errors.As(err, &em) != (tc.code != 0) || (em != nil && em.Code != tc.code) {
				t.Fatalf("reply: err = %v, want code %d", err, tc.code)
			}

			e := reg.Export()
			var roots []obsv.SpanRecord
			for _, s := range tracer.Snapshot(0, 0) {
				if s.ParentID == 0 {
					roots = append(roots, s)
				}
			}
			if !tc.routed {
				if len(e.Ops) != 0 || len(e.Counters) != 0 || len(roots) != 0 {
					t.Fatalf("unknown type counted or traced: ops %+v, counters %+v, spans %+v", e.Ops, e.Counters, roots)
				}
				return
			}
			var errs uint64
			if tc.code != 0 {
				errs = 1
			}
			if len(e.Ops) != 1 || e.Ops[0].Op != "Retrieve" || e.Ops[0].Requests != 1 || e.Ops[0].Errors != errs {
				t.Fatalf("op rows %+v, want one Retrieve with 1 request and %d errors", e.Ops, errs)
			}
			var byCode []string
			for _, s := range e.Counters {
				if s.Name == "errors_by_code" {
					byCode = append(byCode, fmt.Sprintf("%v=%d", s.Labels, s.Value))
				}
			}
			var wantByCode []string
			if tc.code != 0 {
				wantByCode = []string{fmt.Sprintf("%v=1", []obsv.Label{obsv.L("code", fmt.Sprint(tc.code)), obsv.L("op", "Retrieve")})}
			}
			if fmt.Sprint(byCode) != fmt.Sprint(wantByCode) {
				t.Fatalf("errors_by_code = %v, want %v", byCode, wantByCode)
			}
			wantErr := ""
			if em != nil {
				wantErr = em.Error()
			}
			if len(roots) != 1 || roots[0].Name != "Retrieve" || roots[0].Err != wantErr {
				t.Fatalf("root spans %+v, want one Retrieve with error %q", roots, wantErr)
			}
		})
	}
}

// TestMiddlewareOrder: the router's fixed stages run outermost first —
// root span, count, deadline, recover, route. The route sees the root
// span and the deadline in its context; the count, taken outside the
// deadline, includes the whole cut-off wait; and the root span, outside
// the count, lasts at least as long as the latency counted.
func TestMiddlewareOrder(t *testing.T) {
	const timeout = 20 * time.Millisecond
	type seen struct {
		span        obsv.TraceContext
		hasDeadline bool
	}
	saw := make(chan seen, 1)
	reg := obsv.NewRegistry()
	tracer := obsv.NewTracer("test", 64, 0, nil)
	r := NewRouter(reg, tracer, timeout, nil,
		Bind(OpParams, func(ctx context.Context, _ *Empty) (*ParamsResponse, error) {
			_, ok := ctx.Deadline()
			saw <- seen{obsv.ContextTrace(ctx), ok}
			<-ctx.Done()
			return nil, ctx.Err()
		}))
	if em := decodeError(t, r.Handle(context.Background(), Frame{Type: TParams})); em.Code != CodeTimeout {
		t.Fatalf("cut-off route code = %d, want CodeTimeout", em.Code)
	}
	in := <-saw

	var roots []obsv.SpanRecord
	for _, s := range tracer.Snapshot(0, 0) {
		if s.ParentID == 0 {
			roots = append(roots, s)
		}
	}
	if len(roots) != 1 || roots[0].Name != "Params" {
		t.Fatalf("root spans %+v, want one Params", roots)
	}
	if in.span.SpanID != roots[0].SpanID || !in.hasDeadline {
		t.Fatalf("route saw span %+v and deadline %v, want root span %d under a deadline", in.span, in.hasDeadline, roots[0].SpanID)
	}
	e := reg.Export()
	if len(e.Ops) != 1 || e.Ops[0].Op != "Params" || e.Ops[0].ErrorCodes[CodeTimeout] != 1 {
		t.Fatalf("op rows %+v, want one Params counted as CodeTimeout", e.Ops)
	}
	if counted := e.Ops[0].Latency.Max; counted < timeout || roots[0].Duration < counted {
		t.Fatalf("counted %v, root span %v: want deadline %v <= count <= span", counted, roots[0].Duration, timeout)
	}
}

// TestRecoverMiddleware: the router's own recover answers a panicking
// route CodeInternal, both in place and on the deadline's goroutine, and
// the router goes on serving.
func TestRecoverMiddleware(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		r := NewRouter(obsv.NewRegistry(), nil, timeout, nil,
			Bind(OpParams, func(context.Context, *Empty) (*ParamsResponse, error) { panic("route bug") }))
		if em := decodeError(t, r.Handle(context.Background(), Frame{Type: TParams})); em.Code != CodeInternal {
			t.Fatalf("timeout %v: panic code = %d", timeout, em.Code)
		}
		if resp := r.Handle(context.Background(), Frame{Type: TPing}); resp.Type != TPong {
			t.Fatalf("timeout %v: ping after panic: %+v", timeout, resp)
		}
	}
}

// TestInstrumentAndStatsRoute: the count stage records every routed
// request, refusals as errors, and the built-in Stats route serves what
// it recorded.
func TestInstrumentAndStatsRoute(t *testing.T) {
	reg := obsv.NewRegistry()
	r := NewRouter(reg, nil, 0, nil,
		Bind(OpRetrieve, func(_ context.Context, req *RetrieveRequest) (*RetrieveResponse, error) {
			if req.RC == "" {
				return nil, &ErrorMsg{Code: CodeBadRequest, Message: "no recipient"}
			}
			return &RetrieveResponse{}, nil
		}))

	ctx := context.Background()
	for _, rc := range []string{"alice", "bob", ""} { // the last is counted as an error
		r.Handle(ctx, Frame{Type: TRetrieve, Payload: (&RetrieveRequest{RC: rc}).Marshal()})
	}
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
	got, ok := byOp["Retrieve"]
	if !ok {
		t.Fatalf("no Retrieve op in %+v", stats.Ops)
	}
	if got.Requests != 3 || got.Errors != 1 {
		t.Fatalf("retrieve stats: %+v", got)
	}
	if got.MaxNs <= 0 || got.P50Ns <= 0 {
		t.Fatalf("latency fields not populated: %+v", got)
	}
	var byCode []string
	for _, s := range stats.Counters {
		if s.Name == "errors_by_code" {
			byCode = append(byCode, fmt.Sprintf("%v=%d", s.Labels, s.Value))
		}
	}
	want := fmt.Sprintf("%v=1", []obsv.Label{obsv.L("code", fmt.Sprint(CodeBadRequest)), obsv.L("op", "Retrieve")})
	if len(byCode) != 1 || byCode[0] != want {
		t.Fatalf("errors_by_code = %v, want [%s]", byCode, want)
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
	release := make(chan struct{})
	r := NewRouter(obsv.NewRegistry(), nil, 50*time.Millisecond, nil,
		Bind(OpParams, func(ctx context.Context, _ *Empty) (*ParamsResponse, error) {
			select {
			case <-release: // never in this test
			case <-ctx.Done():
				<-release // keep the abandoned goroutine alive past the response
			}
			return &ParamsResponse{}, nil
		}))
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
	_, err = c.Do(Frame{Type: TParams})
	elapsed := time.Since(start)
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != CodeTimeout {
		t.Fatalf("err = %v, want CodeTimeout ErrorMsg", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout response took %v; handler was not cut off", elapsed)
	}
	// The connection survives a timed-out request.
	if resp, err := c.Do(Frame{Type: TPing}); err != nil || resp.Type != TPong {
		t.Fatalf("post-timeout request: %+v, %v", resp, err)
	}
}

// TestAbandonedHandlerExits: a route cut off by the deadline finishes on
// its own goroutine, and that goroutine must then exit instead of
// blocking forever on handing its late reply to a caller that has already
// answered.
func TestAbandonedHandlerExits(t *testing.T) {
	release := make(chan struct{})
	r := NewRouter(obsv.NewRegistry(), nil, time.Millisecond, nil,
		Bind(OpParams, func(ctx context.Context, _ *Empty) (*ParamsResponse, error) {
			<-ctx.Done()
			<-release
			return &ParamsResponse{}, nil
		}))
	if em := decodeError(t, r.Handle(context.Background(), Frame{Type: TParams})); em.Code != CodeTimeout {
		t.Fatalf("cut-off handler code = %d, want CodeTimeout", em.Code)
	}
	close(release)

	// Count the goroutines running withDeadline's closure (one dump block
	// each; inlining may prefix the closure's name with its caller's).
	running := func() int {
		buf := make([]byte, 1<<20)
		n := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "withDeadline.func") {
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
	r := NewRouter(obsv.NewRegistry(), nil, 0, nil,
		Bind(OpParams, func(ctx context.Context, _ *Empty) (*ParamsResponse, error) {
			if _, ok := ctx.Deadline(); ok {
				t.Error("deadline installed despite 0 timeout")
			}
			return &ParamsResponse{}, nil
		}))
	if resp := r.Handle(context.Background(), Frame{Type: TParams}); resp.Type != TParamsResp {
		t.Fatalf("resp: %+v", resp)
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

// FuzzRouterHandle: a router with a route for every op in the table,
// each stubbed to answer its sample response, answers any frame type and
// payload with one frame — the op's response type, or TError carrying a
// defined code — and never panics. Only a type the table does not declare
// is "unsupported", so an op left unrouted fails here too.
func FuzzRouterHandle(f *testing.F) {
	stub := func(name string) Message { return samples[name].resp }
	r := NewRouter(obsv.NewRegistry(), obsv.NewTracer("fuzz", 16, 0, nil), 0, nil,
		Bind(OpDeposit, func(context.Context, *DepositRequest) (*DepositResponse, error) {
			return stub("Deposit").(*DepositResponse), nil
		}),
		Bind(OpRetrieve, func(context.Context, *RetrieveRequest) (*RetrieveResponse, error) {
			return stub("Retrieve").(*RetrieveResponse), nil
		}),
		Bind(OpExtract, func(context.Context, *ExtractRequest) (*ExtractResponse, error) {
			return stub("Extract").(*ExtractResponse), nil
		}),
		Bind(OpParams, func(context.Context, *Empty) (*ParamsResponse, error) {
			return stub("Params").(*ParamsResponse), nil
		}),
		Bind(OpTrapdoor, func(context.Context, *TrapdoorRequest) (*TrapdoorResponse, error) {
			return stub("Trapdoor").(*TrapdoorResponse), nil
		}),
	)
	respType := map[Type]Type{}
	for _, op := range ops {
		respType[op.Req] = op.Resp
		f.Add(uint8(op.Req), samples[op.Name].req.Marshal())
		f.Add(uint8(op.Req), []byte{1})
	}
	f.Add(uint8(TError), []byte(nil))
	f.Add(uint8(TDepositResp), []byte{1})
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		resp := r.Handle(context.Background(), Frame{Type: Type(typ), Payload: payload})
		want, declared := respType[Type(typ)]
		if declared && resp.Type == want {
			return
		}
		if resp.Type != TError {
			t.Fatalf("%s answered with %s", Type(typ), resp.Type)
		}
		em, err := UnmarshalErrorMsg(resp.Payload)
		if err != nil {
			t.Fatalf("%s answered with an undecodable error: %v", Type(typ), err)
		}
		switch em.Code {
		case CodeBadRequest, CodeAuth, CodeReplay, CodeInternal, CodeTimeout, CodeUnavailable:
		default:
			t.Fatalf("%s refused with undefined code %d", Type(typ), em.Code)
		}
		if unsupported := strings.HasPrefix(em.Message, "unsupported frame type"); unsupported == declared {
			t.Fatalf("%s (declared %v) refused: %v", Type(typ), declared, em)
		}
	})
}
