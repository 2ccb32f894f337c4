package wire

import (
	"time"

	"mwskit/internal/codec"
	"mwskit/internal/obsv"
)

// TraceRequest asks a server for recent finished spans (the TTrace
// introspection op). TraceID narrows to one trace when nonzero; Limit
// bounds the reply (0 means server default).
type TraceRequest struct {
	TraceID uint64
	Limit   uint32
}

func (r *TraceRequest) walk(c *codec.Walker) {
	c.Uint64(&r.TraceID)
	c.Uint32(&r.Limit)
}

// Marshal encodes the message.
func (r *TraceRequest) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalTraceRequest decodes a TraceRequest payload.
func UnmarshalTraceRequest(b []byte) (*TraceRequest, error) {
	r, c := new(TraceRequest), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
}

// maxTraceSpans bounds a TraceResponse so introspection cannot be used
// to force unbounded allocation.
const maxTraceSpans = 1 << 14

// TraceResponse carries finished span records, newest first.
type TraceResponse struct {
	Spans []obsv.SpanRecord
}

// walk takes span start times as Unix nanoseconds, so the encoding is
// architecture- and timezone-independent.
func (r *TraceResponse) walk(c *codec.Walker) {
	spans := codec.List32(c, &r.Spans, maxTraceSpans, 5*8+4*4) // three ids, start, duration; three strings and the attribute count
	for i := range spans {
		s := &spans[i]
		c.Uint64(&s.TraceID)
		c.Uint64(&s.SpanID)
		c.Uint64(&s.ParentID)
		c.Str(&s.Service)
		c.Str(&s.Name)
		start := s.Start.UnixNano()
		c.Int64(&start)
		c.Int64((*int64)(&s.Duration))
		c.Str(&s.Err)
		walkLabels(c, &s.Attrs, 256)
		if c.Reading() {
			s.Start = time.Unix(0, start).UTC()
		}
	}
}

// Marshal encodes the message.
func (r *TraceResponse) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalTraceResponse decodes a TraceResponse payload.
func UnmarshalTraceResponse(b []byte) (*TraceResponse, error) {
	r, c := new(TraceResponse), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
}
