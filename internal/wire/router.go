package wire

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"time"

	"mwskit/internal/obsv"
)

// Middleware wraps a Handler with cross-cutting behaviour (recovery,
// deadlines, instrumentation). Middleware registered on a Router applies
// to every route, in registration order: the first Use'd middleware is
// outermost.
type Middleware func(next Handler) Handler

// Router dispatches request frames to the handlers registered for their
// ops. Register one with Route (it owns unmarshal, marshal and error
// mapping); attach middleware with Use. An unknown frame type yields a
// CodeBadRequest error frame.
type Router struct {
	mu       sync.RWMutex
	mws      []Middleware
	routes   map[Type]Handler // as registered, pre-middleware
	composed map[Type]Handler // with the middleware chain applied
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{routes: make(map[Type]Handler), composed: make(map[Type]Handler)}
}

// Use appends middleware to the chain and rewraps every registered route.
func (r *Router) Use(mws ...Middleware) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mws = append(r.mws, mws...)
	for t, h := range r.routes {
		r.composed[t] = r.composeLocked(h)
	}
}

func (r *Router) composeLocked(h Handler) Handler {
	for i := len(r.mws) - 1; i >= 0; i-- {
		h = r.mws[i](h)
	}
	return h
}

// handle registers a raw frame handler for one request type; Route is
// its only caller outside the tests.
func (r *Router) handle(t Type, h HandlerFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes[t] = h
	r.composed[t] = r.composeLocked(h)
}

// Handle dispatches one frame through the middleware chain to its route.
// It implements Handler, so a Router can be served directly by a Server.
func (r *Router) Handle(ctx context.Context, f Frame) Frame {
	r.mu.RLock()
	h, ok := r.composed[f.Type]
	r.mu.RUnlock()
	if !ok {
		return ErrorFrame(CodeBadRequest, "unsupported frame type %s", f.Type)
	}
	return h.Handle(ctx, f)
}

// Route registers the handler of one op: unmarshal the request payload
// with the op's decoder, invoke the handler with the decoded message,
// marshal the response under the op's response type. Handler errors map
// to structured error frames: a *ErrorMsg is sent verbatim, context
// deadline errors become CodeTimeout, context cancellation becomes
// CodeUnavailable, and anything else is masked as CodeInternal so internal
// detail never leaks to the peer.
func Route[Req, Resp Message](r *Router, op *Op[Req, Resp], handle func(ctx context.Context, req Req) (Resp, error)) {
	r.handle(op.Req, func(ctx context.Context, f Frame) Frame {
		_, sp := obsv.StartSpan(ctx, "decode")
		req, err := op.decodeReq(f.Payload)
		sp.SetErr(err)
		sp.End()
		if err != nil {
			return ErrorFrame(CodeBadRequest, "bad %s request: %v", op.Name, err)
		}
		resp, err := handle(ctx, req)
		if err != nil {
			return errorToFrame(ctx, err)
		}
		return Frame{Type: op.Resp, Payload: resp.Marshal()}
	})
}

// errorToFrame maps a handler error to a structured error frame.
func errorToFrame(ctx context.Context, err error) Frame {
	var em *ErrorMsg
	if errors.As(err, &em) {
		return Frame{Type: TError, Payload: em.Marshal()}
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrorFrame(CodeTimeout, "request deadline exceeded")
	}
	if errors.Is(err, context.Canceled) || errors.Is(ctx.Err(), context.Canceled) {
		return ErrorFrame(CodeUnavailable, "request canceled")
	}
	return ErrorFrame(CodeInternal, "internal error")
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

// Recover is middleware that converts a route panic into a CodeInternal
// error frame, keeping the connection (and server) alive.
func Recover(logger *slog.Logger) Middleware {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return func(next Handler) Handler {
		return HandlerFunc(func(ctx context.Context, f Frame) (resp Frame) {
			defer func() {
				if r := recover(); r != nil {
					logger.Error("wire: handler panic", "type", f.Type, "panic", r)
					resp = ErrorFrame(CodeInternal, "internal error")
				}
			}()
			return next.Handle(ctx, f)
		})
	}
}

// WithTimeout is middleware that bounds each request: the handler runs
// under a context carrying the deadline, and if it has not returned when
// the deadline passes, the client immediately receives a CodeTimeout error
// frame while the abandoned handler goroutine winds down in the
// background (observing ctx.Err() at its next checkpoint). A non-positive
// d disables the bound.
func WithTimeout(d time.Duration) Middleware {
	return func(next Handler) Handler {
		if d <= 0 {
			return next
		}
		return HandlerFunc(func(ctx context.Context, f Frame) Frame {
			ctx, cancel := context.WithTimeout(ctx, d)
			defer cancel()
			done := make(chan Frame, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						// The inner Recover middleware normally catches
						// panics; this is a backstop so an abandoned
						// goroutine can never crash the process.
						done <- ErrorFrame(CodeInternal, "internal error")
					}
				}()
				done <- next.Handle(ctx, f)
			}()
			select {
			case resp := <-done:
				return resp
			case <-ctx.Done():
				return errorToFrame(ctx, ctx.Err())
			}
		})
	}
}

// Instrument is middleware recording per-op request counts, error counts,
// and latency into reg, keyed by the request frame type's name. Error
// responses are attributed to their structured code so the periodic stats
// line can tell auth failures from timeouts; one whose payload carries no
// usable code counts as CodeInternal.
func Instrument(reg *obsv.Registry) Middleware {
	return func(next Handler) Handler {
		return HandlerFunc(func(ctx context.Context, f Frame) Frame {
			start := time.Now()
			resp := next.Handle(ctx, f)
			var code uint32
			if resp.Type == TError {
				code = CodeInternal
				if em, err := UnmarshalErrorMsg(resp.Payload); err == nil && em.Code != 0 {
					code = em.Code
				}
			}
			reg.Observe(f.Type.String(), time.Since(start), code)
			return resp
		})
	}
}

// Trace is middleware that roots a server-side span tree for every
// request: the span inherits the trace ID a frame carries (so the
// server's stages stitch onto the client's trace) or mints one for
// untraced peers so the slow-request log still fires for them. Install
// it outermost — ahead of Instrument — so every stage, decode included,
// lands inside the root span.
func Trace(t *obsv.Tracer) Middleware {
	return func(next Handler) Handler {
		if t == nil {
			return next
		}
		return HandlerFunc(func(ctx context.Context, f Frame) Frame {
			ctx, sp := t.StartRemote(ctx, f.Type.String(), f.Trace)
			if p := Peer(ctx); p != nil {
				sp.SetAttr("peer", p.String())
			}
			resp := next.Handle(ctx, f)
			if resp.Type == TError {
				if em, err := UnmarshalErrorMsg(resp.Payload); err == nil {
					sp.SetErr(em)
				}
			}
			sp.End()
			return resp
		})
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

// RegisterPing answers the liveness op.
func RegisterPing(r *Router) {
	Route(r, OpPing, func(context.Context, *Empty) (*Empty, error) { return nil, nil })
}

// RegisterStats exposes reg on the router as the TStats introspection op.
func RegisterStats(r *Router, reg *obsv.Registry) {
	Route(r, OpStats, func(context.Context, *Empty) (*StatsResponse, error) {
		return StatsFromRegistry(reg), nil
	})
}

// defaultTraceLimit bounds a TTrace reply when the request does not
// choose.
const defaultTraceLimit = 512

// RegisterTrace exposes the tracer's span ring on the router as the
// TTrace introspection op.
func RegisterTrace(r *Router, t *obsv.Tracer) {
	Route(r, OpTrace, func(ctx context.Context, req *TraceRequest) (*TraceResponse, error) {
		limit := int(req.Limit)
		if limit <= 0 || limit > maxTraceSpans {
			limit = defaultTraceLimit
		}
		return &TraceResponse{Spans: t.Snapshot(limit, req.TraceID)}, nil
	})
}
