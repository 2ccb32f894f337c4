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

// Marshal encodes the message.
func (r *TraceRequest) Marshal() []byte {
	var e codec.Encoder
	e.Uint64(r.TraceID)
	e.Uint32(r.Limit)
	return e.Bytes()
}

// UnmarshalTraceRequest decodes a TraceRequest payload.
func UnmarshalTraceRequest(b []byte) (*TraceRequest, error) {
	return decode(b, func(d *codec.Decoder, r *TraceRequest) (err error) {
		if r.TraceID, err = d.Uint64(); err != nil {
			return err
		}
		r.Limit, err = d.Uint32()
		return err
	})
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
	var e codec.Encoder
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
	return decode(b, func(d *codec.Decoder, r *TraceResponse) (err error) {
		r.Spans, err = decodeList(d, maxTraceSpans, "span", func(d *codec.Decoder, s *obsv.SpanRecord) (err error) {
			if s.TraceID, err = d.Uint64(); err != nil {
				return err
			}
			if s.SpanID, err = d.Uint64(); err != nil {
				return err
			}
			if s.ParentID, err = d.Uint64(); err != nil {
				return err
			}
			if s.Service, err = d.Str(); err != nil {
				return err
			}
			if s.Name, err = d.Str(); err != nil {
				return err
			}
			var startNs, durNs int64
			if startNs, err = d.Int64(); err != nil {
				return err
			}
			if durNs, err = d.Int64(); err != nil {
				return err
			}
			s.Start = time.Unix(0, startNs).UTC()
			s.Duration = time.Duration(durNs)
			if s.Err, err = d.Str(); err != nil {
				return err
			}
			s.Attrs, err = decodeLabels(d, 256)
			return err
		})
		return err
	})
}
