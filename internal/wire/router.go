package wire

import (
	"context"
	"errors"
	"log/slog"
	"sort"
	"sync"
	"time"

	"mwskit/internal/obsv"
)

// Middleware wraps a Handler with cross-cutting behaviour (recovery,
// deadlines, instrumentation). Middleware registered on a Router applies
// to every route, in registration order: the first Use'd middleware is
// outermost.
type Middleware func(next Handler) Handler

// Router dispatches request frames to typed routes. Register routes with
// Route (typed, owns unmarshal/marshal/error mapping) or HandleFunc (raw
// frames, for payload-less ops like Ping); attach middleware with Use.
// An unknown frame type yields a CodeBadRequest error frame.
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

// HandleFunc registers a raw frame handler for one request type. Most
// routes should use Route instead; this exists for payload-less
// operations (Ping, Stats) where typed adapters add nothing.
func (r *Router) HandleFunc(t Type, h HandlerFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.routes[t] = h
	r.composed[t] = r.composeLocked(h)
}

// Types returns the registered request frame types, sorted.
func (r *Router) Types() []Type {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Type, 0, len(r.routes))
	for t := range r.routes {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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

// Route registers a typed route: unmarshal the request payload, invoke the
// handler with the decoded message, marshal the response. Handler errors
// map to structured error frames: a *ErrorMsg is sent verbatim, context
// deadline errors become CodeTimeout, context cancellation becomes
// CodeUnavailable, and anything else is masked as CodeInternal so internal
// detail never leaks to the peer.
func Route[Req any, Resp interface{ Marshal() []byte }](
	r *Router, reqType, respType Type,
	unmarshal func([]byte) (Req, error),
	handle func(ctx context.Context, req Req) (Resp, error),
) {
	r.HandleFunc(reqType, func(ctx context.Context, f Frame) Frame {
		_, sp := obsv.StartSpan(ctx, "decode")
		req, err := unmarshal(f.Payload)
		sp.SetErr(err)
		sp.End()
		if err != nil {
			return ErrorFrame(CodeBadRequest, "bad %s request: %v", reqType, err)
		}
		resp, err := handle(ctx, req)
		if err != nil {
			return errorToFrame(ctx, err)
		}
		return Frame{Type: respType, Payload: resp.Marshal()}
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
// request: the span inherits the trace ID carried in a v2 frame (so the
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

// RegisterStats exposes reg on the router as the TStats introspection op.
func RegisterStats(r *Router, reg *obsv.Registry) {
	r.HandleFunc(TStats, func(ctx context.Context, f Frame) Frame {
		return Frame{Type: TStatsResp, Payload: StatsFromRegistry(reg).Marshal()}
	})
}

// defaultTraceLimit bounds a TTrace reply when the request does not
// choose.
const defaultTraceLimit = 512

// RegisterTrace exposes the tracer's span ring on the router as the
// TTrace introspection op.
func RegisterTrace(r *Router, t *obsv.Tracer) {
	Route(r, TTrace, TTraceResp, UnmarshalTraceRequest,
		func(ctx context.Context, req *TraceRequest) (*TraceResponse, error) {
			limit := int(req.Limit)
			if limit <= 0 || limit > maxTraceSpans {
				limit = defaultTraceLimit
			}
			return &TraceResponse{Spans: t.Snapshot(limit, req.TraceID)}, nil
		})
}
