// Package obsv is the observability layer for the message warehousing
// stack: wire-propagated request traces, crypto-stage spans, and the
// process-wide counters that attribute a slow deposit to pairing work vs.
// policy checks vs. WAL fsync, and the registry, counter, gauge and
// histogram types such numbers are kept in. It imports only the standard
// library (scripts/check.sh enforces it), so every other package — the
// field/curve layer included — can hook into it without import cycles.
//
// Tracing is pull-based and bounded: finished spans land in a fixed-size
// lock-free ring buffer, retrievable over the wire (TTrace) or the debug
// HTTP listener; nothing is emitted per-span except when a root span
// exceeds the tracer's slow-request threshold, in which case the full
// span tree is dumped through slog.
//
// Span attributes are a log-like sink: identities, digests, sizes, and
// timings belong there; key material and plaintext never do (mwslint's
// secretlog analyzer enforces the naming tripwire).
package obsv

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"log/slog"
	"slices"
	"sync"
	"time"
)

// TraceContext identifies a position in a distributed trace: the trace a
// request belongs to and the span that caused it. The zero value means
// "untraced"; trace IDs are never zero.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context carries a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// SpanRecord is one finished span, immutable once published to the ring.
type SpanRecord struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64
	Service  string
	Name     string
	Start    time.Time
	Duration time.Duration
	Err      string
	Attrs    []Label // annotations, in SetAttr order
}

// Span is one in-flight stage of a request. All methods are nil-receiver
// safe, so instrumented code paths cost a single pointer test when
// tracing is disabled.
type Span struct {
	tracer *Tracer
	root   *Span
	start  time.Time // monotonic anchor for Duration

	mu   sync.Mutex
	rec  SpanRecord
	done bool
	// kids collects finished descendant records; populated on the root
	// span only, for the slow-request dump.
	kids []SpanRecord
}

// newID draws a random nonzero 64-bit identifier. Trace and span IDs are
// security-irrelevant, but crypto/rand is the project-wide randomness
// source (randsource policy) and the cost is negligible per request.
func newID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// Entropy failure here must not take down a request path;
			// fall back to a time-derived ID. Tracing IDs carry no
			// security weight.
			return uint64(time.Now().UnixNano()) | 1
		}
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}

// NewTraceID mints a fresh trace identifier for a client originating a
// request (smartdev, rcclient).
func NewTraceID() uint64 { return newID() }

// Tracer owns a service's span ring and slow-request policy. A nil
// *Tracer is valid and disables tracing at every call site.
type Tracer struct {
	service string
	ring    *SpanRing
	slow    time.Duration
	logger  *slog.Logger
}

// NewTracer builds a tracer. ringSize bounds retained finished spans
// (<=0 selects the default); slow is the root-span duration beyond which
// the whole span tree is dumped via logger (<=0 disables the dump); a
// nil logger discards.
func NewTracer(service string, ringSize int, slow time.Duration, logger *slog.Logger) *Tracer {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Tracer{service: service, ring: NewSpanRing(ringSize), slow: slow, logger: logger}
}

// Snapshot returns up to limit recent finished spans, newest first,
// filtered to one trace when traceID is nonzero. Nil-safe.
func (t *Tracer) Snapshot(limit int, traceID uint64) []SpanRecord {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot(limit, traceID)
}

// spanCtxKey carries the current *Span through a request context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s as the current span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span, or nil when ctx is untraced.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// ContextTrace returns the wire trace context for the current span, for
// injection into outgoing frames. Zero when untraced.
func ContextTrace(ctx context.Context) TraceContext {
	return SpanFromContext(ctx).Context()
}

// StartRemote begins a root span for a request that may carry a remote
// trace context: the trace ID is inherited when present (stitching the
// server's spans to the client's) and minted otherwise. Returns ctx
// unchanged and a nil span when the tracer is nil.
func (t *Tracer) StartRemote(ctx context.Context, name string, remote TraceContext) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if remote.TraceID == 0 {
		remote.TraceID = newID()
	}
	s := newSpan(t, nil, name, remote)
	return ContextWithSpan(ctx, s), s
}

// newSpan starts a span of t under parent; a nil root makes it its own.
func newSpan(t *Tracer, root *Span, name string, parent TraceContext) *Span {
	now := time.Now()
	s := &Span{
		tracer: t,
		root:   root,
		start:  now,
		rec: SpanRecord{
			TraceID:  parent.TraceID,
			SpanID:   newID(),
			ParentID: parent.SpanID,
			Service:  t.service,
			Name:     name,
			Start:    now,
		},
	}
	if root == nil {
		s.root = s
	}
	return s
}

// StartRoot begins a fresh root span with a newly minted trace ID.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	return t.StartRemote(ctx, name, TraceContext{})
}

// StartSpan begins a child of the current span in ctx. When ctx carries
// no span this is a no-op returning (ctx, nil): instrumentation points
// need no tracer plumbing, just a context.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := newSpan(parent.tracer, parent.root, name, parent.Context())
	return ContextWithSpan(ctx, s), s
}

// Context returns the span's trace context (zero for nil).
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID}
}

// SetAttr annotates the span. Attributes are a log sink: identities and
// digests are fine, key material and plaintext are forbidden.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.rec.Attrs = append(s.rec.Attrs, L(key, value))
	}
	s.mu.Unlock()
}

// SetErr records the span's failure cause (nil-safe both ways).
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.rec.Err = err.Error()
	}
	s.mu.Unlock()
}

// End finishes the span, publishing its record to the tracer's ring.
// Ending the root span additionally triggers the slow-request dump when
// its duration crosses the tracer threshold. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.rec.Duration = time.Since(s.start)
	rec := s.rec
	s.mu.Unlock()

	s.tracer.ring.Put(&rec)
	if s.root == s {
		s.finishRoot(rec)
		return
	}
	s.root.addChild(rec)
}

// addChild collects a finished descendant record on the root for the
// slow-request dump. Children finishing after the root (abandoned
// timeout goroutines) are dropped: their records are already in the
// ring, and the dump has happened.
func (s *Span) addChild(rec SpanRecord) {
	s.mu.Lock()
	if !s.done {
		s.kids = append(s.kids, rec)
	}
	s.mu.Unlock()
}

// finishRoot emits the slow-request dump when warranted.
func (s *Span) finishRoot(root SpanRecord) {
	t := s.tracer
	if t.slow <= 0 || root.Duration < t.slow {
		return
	}
	s.mu.Lock()
	kids := slices.Clone(s.kids)
	s.mu.Unlock()
	t.logger.Warn("slow request",
		"trace", root.TraceID,
		"span", root.SpanID,
		"name", root.Name,
		"dur", root.Duration,
		"err", root.Err,
		"stages", len(kids),
	)
	for _, k := range kids {
		attrs := make([]any, 0, 10+2*len(k.Attrs))
		attrs = append(attrs,
			"trace", k.TraceID,
			"span", k.SpanID,
			"parent", k.ParentID,
			"stage", k.Name,
			"dur", k.Duration,
		)
		if k.Err != "" {
			attrs = append(attrs, "err", k.Err)
		}
		for _, a := range k.Attrs {
			attrs = append(attrs, "attr."+a.Key, a.Value)
		}
		t.logger.Warn("slow request stage", attrs...)
	}
}
