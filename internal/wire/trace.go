package wire

import (
	"errors"
	"time"

	"mwskit/internal/obsv"
)

// TraceRequest asks a server for recent finished spans (the TTrace
// introspection op). TraceID narrows to one trace when nonzero; Limit
// bounds the reply (0 means server default).
type TraceRequest struct {
	TraceID uint64
	Limit   uint32
}

// Marshal encodes the message.
func (r *TraceRequest) Marshal() []byte {
	var e Encoder
	e.Uint64(r.TraceID)
	e.Uint32(r.Limit)
	return e.Bytes()
}

// UnmarshalTraceRequest decodes a TraceRequest payload.
func UnmarshalTraceRequest(b []byte) (*TraceRequest, error) {
	d := NewDecoder(b)
	var r TraceRequest
	var err error
	if r.TraceID, err = d.Uint64(); err != nil {
		return nil, err
	}
	if r.Limit, err = d.Uint32(); err != nil {
		return nil, err
	}
	return &r, d.Done()
}

// maxTraceSpans bounds a TraceResponse so introspection cannot be used
// to force unbounded allocation.
const maxTraceSpans = 1 << 14

// TraceResponse carries finished span records, newest first.
type TraceResponse struct {
	Spans []obsv.SpanRecord
}

// Marshal encodes the message. Span start times travel as Unix
// nanoseconds so the encoding is architecture- and timezone-independent.
func (r *TraceResponse) Marshal() []byte {
	var e Encoder
	e.Uint32(uint32(len(r.Spans)))
	for i := range r.Spans {
		s := &r.Spans[i]
		e.Uint64(s.TraceID)
		e.Uint64(s.SpanID)
		e.Uint64(s.ParentID)
		e.Str(s.Service)
		e.Str(s.Name)
		e.Int64(s.Start.UnixNano())
		e.Int64(int64(s.Duration))
		e.Str(s.Err)
		encodeLabels(&e, s.Attrs)
	}
	return e.Bytes()
}

// UnmarshalTraceResponse decodes a TraceResponse payload.
func UnmarshalTraceResponse(b []byte) (*TraceResponse, error) {
	d := NewDecoder(b)
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > maxTraceSpans {
		return nil, errors.New("wire: implausible span count")
	}
	r := &TraceResponse{Spans: make([]obsv.SpanRecord, n)}
	for i := range r.Spans {
		s := &r.Spans[i]
		if s.TraceID, err = d.Uint64(); err != nil {
			return nil, err
		}
		if s.SpanID, err = d.Uint64(); err != nil {
			return nil, err
		}
		if s.ParentID, err = d.Uint64(); err != nil {
			return nil, err
		}
		if s.Service, err = d.Str(); err != nil {
			return nil, err
		}
		if s.Name, err = d.Str(); err != nil {
			return nil, err
		}
		var startNs, durNs int64
		if startNs, err = d.Int64(); err != nil {
			return nil, err
		}
		if durNs, err = d.Int64(); err != nil {
			return nil, err
		}
		s.Start = time.Unix(0, startNs).UTC()
		s.Duration = time.Duration(durNs)
		if s.Err, err = d.Str(); err != nil {
			return nil, err
		}
		if s.Attrs, err = decodeLabels(d, 256); err != nil {
			return nil, err
		}
	}
	return r, d.Done()
}
