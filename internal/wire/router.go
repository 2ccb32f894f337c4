package wire

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"mwskit/internal/obsv"
)

// Router is the request pipeline of both services. Every request it
// routes runs the same stages, outermost first: a root span, the op's
// count and latency, the request deadline, panic recovery, and then the
// op's typed route. The route table is fixed by NewRouter, so Handle
// reads it without a lock. An unknown frame type is answered
// CodeBadRequest before any stage runs: it is neither counted nor traced.
type Router struct {
	routes  [256]route // by request type; nil where no op is bound
	stats   *obsv.Registry
	tracer  *obsv.Tracer
	timeout time.Duration
	logger  *slog.Logger
}

// route answers one request: its response frame, or the refusal the
// count and span stages read before the pipeline encodes it.
type route func(ctx context.Context, f Frame) (Frame, *ErrorMsg)

// reply is a route's result handed across the deadline stage's goroutine.
type reply struct {
	f  Frame
	em *ErrorMsg
}

// Binding is one op's typed route, made by Bind for NewRouter.
type Binding struct {
	req   Type
	route route
}

// Bind makes the route of one op: unmarshal the request payload with the
// op's decoder, invoke handle with the decoded message, marshal the
// response under the op's response type. Handler errors map to
// refusals: a *ErrorMsg is sent verbatim, context deadline errors become
// CodeTimeout, context cancellation becomes CodeUnavailable, and anything
// else is masked as CodeInternal so internal detail never leaks to the
// peer.
func Bind[Req, Resp Message](op *Op[Req, Resp], handle func(ctx context.Context, req Req) (Resp, error)) Binding {
	return Binding{req: op.Req, route: func(ctx context.Context, f Frame) (Frame, *ErrorMsg) {
		_, sp := obsv.StartSpan(ctx, "decode")
		req, err := op.decodeReq(f.Payload)
		sp.SetErr(err)
		sp.End()
		if err != nil {
			return Frame{}, &ErrorMsg{Code: CodeBadRequest, Message: fmt.Sprintf("bad %s request: %v", op.Name, err)}
		}
		resp, err := handle(ctx, req)
		if err != nil {
			return Frame{}, refusal(ctx, err)
		}
		return Frame{Type: op.Resp, Payload: resp.Marshal()}, nil
	}}
}

// defaultTraceLimit bounds a TTrace reply when the request does not
// choose.
const defaultTraceLimit = 512

// NewRouter builds the pipeline over the given routes plus the three every
// service answers: Ping, Stats (stats as the TStats introspection op) and
// Trace (the tracer's span ring as TTrace). stats counts every routed
// request and must not be nil; a nil tracer records no spans; a
// non-positive timeout installs no deadline; a nil logger discards.
func NewRouter(stats *obsv.Registry, tracer *obsv.Tracer, timeout time.Duration, logger *slog.Logger, routes ...Binding) *Router {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	r := &Router{stats: stats, tracer: tracer, timeout: timeout, logger: logger}
	common := []Binding{
		Bind(OpPing, func(context.Context, *Empty) (*Empty, error) { return nil, nil }),
		Bind(OpStats, func(context.Context, *Empty) (*StatsResponse, error) {
			return StatsFromRegistry(stats), nil
		}),
		Bind(OpTrace, func(ctx context.Context, req *TraceRequest) (*TraceResponse, error) {
			limit := int(req.Limit)
			if limit <= 0 || limit > maxTraceSpans {
				limit = defaultTraceLimit
			}
			return &TraceResponse{Spans: tracer.Snapshot(limit, req.TraceID)}, nil
		}),
	}
	for _, b := range append(common, routes...) {
		if r.routes[b.req] != nil {
			panic(fmt.Sprintf("wire: two routes for %s", b.req))
		}
		r.routes[b.req] = b.route
	}
	return r
}

// Handle runs one frame through the pipeline. It implements Handler, so a
// Router can be served directly by a Server.
func (r *Router) Handle(ctx context.Context, f Frame) Frame {
	rt := r.routes[f.Type]
	if rt == nil {
		return ErrorFrame(CodeBadRequest, "unsupported frame type %s", f.Type)
	}
	// The root span inherits the trace ID a frame carries, so the server's
	// stages stitch onto the client's trace, or mints one for untraced
	// peers so the slow-request log still fires for them.
	op := f.Type.String()
	ctx, sp := r.tracer.StartRemote(ctx, op, f.Trace)
	if sp != nil {
		if p := Peer(ctx); p != nil {
			sp.SetAttr("peer", p.String())
		}
	}
	start := time.Now()
	resp, em := r.withDeadline(ctx, f, rt)
	var code uint32
	if em != nil {
		code = cmp.Or(em.Code, CodeInternal)
		resp = Frame{Type: TError, Payload: em.Marshal()}
		sp.SetErr(em)
	}
	r.stats.Observe(op, time.Since(start), code)
	sp.End()
	return resp
}

// withDeadline bounds one request: the route runs under a context
// carrying the deadline, and if it has not returned when the deadline
// passes, the caller is answered CodeTimeout at once while the abandoned
// route winds down on its own goroutine (observing ctx.Err() at its next
// checkpoint). A non-positive timeout runs the route in place.
func (r *Router) withDeadline(ctx context.Context, f Frame, rt route) (Frame, *ErrorMsg) {
	if r.timeout <= 0 {
		return r.recovered(ctx, f, rt)
	}
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	done := make(chan reply, 1)
	go func() {
		resp, em := r.recovered(ctx, f, rt)
		done <- reply{resp, em}
	}()
	select {
	case res := <-done:
		return res.f, res.em
	case <-ctx.Done():
		return Frame{}, CtxErr(ctx)
	}
}

// recovered runs the route, turning a panic into a CodeInternal refusal
// on whichever goroutine runs it, so neither the connection nor an
// abandoned route can take the process down.
func (r *Router) recovered(ctx context.Context, f Frame, rt route) (resp Frame, em *ErrorMsg) {
	defer func() {
		if p := recover(); p != nil {
			r.logger.Error("wire: handler panic", "type", f.Type, "panic", p)
			em = &ErrorMsg{Code: CodeInternal, Message: "internal error"}
		}
	}()
	return rt(ctx, f)
}

// refusal maps a handler error to the refusal sent to the peer.
func refusal(ctx context.Context, err error) *ErrorMsg {
	var em *ErrorMsg
	switch {
	case errors.As(err, &em):
		return em
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		return &ErrorMsg{Code: CodeTimeout, Message: "request deadline exceeded"}
	case errors.Is(err, context.Canceled) || errors.Is(ctx.Err(), context.Canceled):
		return &ErrorMsg{Code: CodeUnavailable, Message: "request canceled"}
	}
	return &ErrorMsg{Code: CodeInternal, Message: "internal error"}
}

// CtxErr converts a context's failure state into the matching *ErrorMsg,
// or nil if the context is still live. Service layers call it at
// cancellation checkpoints (store writes, per-item crypto loops) so a
// request cut off by its deadline returns a structured timeout error
// instead of burning further CPU.
func CtxErr(ctx context.Context) *ErrorMsg {
	switch {
	case ctx.Err() == nil:
		return nil
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return &ErrorMsg{Code: CodeTimeout, Message: "request deadline exceeded"}
	default:
		return &ErrorMsg{Code: CodeUnavailable, Message: "request canceled"}
	}
}

// StatsFromRegistry renders what obsv.Collect(reg) exports — the same
// samples /metrics serves — as a wire StatsResponse: per-op rows sorted by
// name, then the registry's counters (errors_by_code{code,op} among them)
// and gauges, each followed by the process-wide crypto/storage series.
func StatsFromRegistry(reg *obsv.Registry) *StatsResponse {
	e := obsv.Collect(reg)
	resp := &StatsResponse{Ops: make([]OpStat, len(e.Ops)), Counters: e.Counters, Gauges: e.Gauges}
	for i, s := range e.Ops {
		resp.Ops[i] = OpStat{
			Op:       s.Op,
			Requests: s.Requests,
			Errors:   s.Errors,
			MinNs:    int64(s.Latency.Min),
			MeanNs:   int64(s.Latency.Mean),
			P50Ns:    int64(s.Latency.P50),
			P90Ns:    int64(s.Latency.P90),
			P99Ns:    int64(s.Latency.P99),
			MaxNs:    int64(s.Latency.Max),
		}
	}
	return resp
}
