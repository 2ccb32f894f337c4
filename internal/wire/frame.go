// Package wire defines the MWS network protocol: a length-prefixed binary
// framing over TCP plus the typed messages of the paper's three protocol
// phases (Fig 4): SD–MWS deposits, MWS–RC retrieval, and RC–PKG key
// extraction. The paper's prototype spoke ad-hoc serialized Perl over
// sockets; this is the production equivalent with versioning, bounded
// frames, and explicit error replies.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mwskit/internal/obsv"
)

// Magic identifies protocol version 1 frames.
var Magic = [4]byte{'M', 'W', 'S', '1'}

// Magic2 identifies protocol version 2 frames: same framing as v1 plus a
// flags byte and optional extension blocks (today: a trace context).
// Writers emit v2 only when an extension is present, so a peer that never
// uses extensions is byte-for-byte a v1 peer and old servers are
// unaffected; see Client.EnableTrace for the version probe.
var Magic2 = [4]byte{'M', 'W', 'S', '2'}

// Type tags the payload carried by a frame.
type Type uint8

// Frame types. Requests are odd, their responses even; TError may answer
// any request.
const (
	TError        Type = 0
	TDeposit      Type = 1
	TDepositResp  Type = 2
	TRetrieve     Type = 3
	TRetrieveResp Type = 4
	TExtract      Type = 5
	TExtractResp  Type = 6
	TParams       Type = 7
	TParamsResp   Type = 8
	TPing         Type = 9
	TPong         Type = 10
	TTrapdoor     Type = 11
	TTrapdoorResp Type = 12
	TStats        Type = 13
	TStatsResp    Type = 14
	TTrace        Type = 15
	TTraceResp    Type = 16
)

// String implements fmt.Stringer for log lines.
func (t Type) String() string {
	switch t {
	case TError:
		return "Error"
	case TDeposit:
		return "Deposit"
	case TDepositResp:
		return "DepositResp"
	case TRetrieve:
		return "Retrieve"
	case TRetrieveResp:
		return "RetrieveResp"
	case TExtract:
		return "Extract"
	case TExtractResp:
		return "ExtractResp"
	case TParams:
		return "Params"
	case TParamsResp:
		return "ParamsResp"
	case TPing:
		return "Ping"
	case TPong:
		return "Pong"
	case TTrapdoor:
		return "Trapdoor"
	case TTrapdoorResp:
		return "TrapdoorResp"
	case TStats:
		return "Stats"
	case TStatsResp:
		return "StatsResp"
	case TTrace:
		return "Trace"
	case TTraceResp:
		return "TraceResp"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// MaxFrameLen bounds a frame payload (16 MiB) so a malicious peer cannot
// force unbounded allocation.
const MaxFrameLen = 16 << 20

// Frame is one protocol message. Trace is the optional v2 extension: a
// zero Trace produces a v1 frame on the wire, a valid one a v2 frame
// carrying the trace block.
type Frame struct {
	Type    Type
	Payload []byte
	Trace   obsv.TraceContext
}

// frame header v1: magic(4) + type(1) + len(4)
const headerLen = 9

// frame header v2: magic(4) + type(1) + flags(1) + len(4), then extension
// blocks selected by flags, then the payload.
const headerLenV2 = 10

// v2 header flag bits.
const (
	// flagTrace marks a 16-byte trace block (trace ID, span ID) between
	// header and payload.
	flagTrace uint8 = 1 << 0
	// knownFlags guards against peers speaking a future dialect: a frame
	// with flags we cannot parse cannot be framed correctly, so it is a
	// hard error rather than a skippable extension.
	knownFlags = flagTrace
)

// traceBlockLen is the wire size of the flagTrace extension block.
const traceBlockLen = 16

// WriteFrame writes a frame to w, choosing v1 or v2 encoding by whether
// the frame carries an extension.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrameLen {
		return fmt.Errorf("wire: frame payload %d exceeds limit", len(f.Payload))
	}
	if !f.Trace.Valid() {
		var hdr [headerLen]byte
		copy(hdr[:4], Magic[:])
		hdr[4] = byte(f.Type)
		binary.BigEndian.PutUint32(hdr[5:9], uint32(len(f.Payload)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := w.Write(f.Payload)
		return err
	}
	var hdr [headerLenV2 + traceBlockLen]byte
	copy(hdr[:4], Magic2[:])
	hdr[4] = byte(f.Type)
	hdr[5] = flagTrace
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(f.Payload)))
	binary.BigEndian.PutUint64(hdr[10:18], f.Trace.TraceID)
	binary.BigEndian.PutUint64(hdr[18:26], f.Trace.SpanID)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ErrBadMagic indicates the peer is not speaking a known MWS protocol
// version.
var ErrBadMagic = errors.New("wire: bad magic")

// ReadFrame reads one frame (either protocol version) from r, rejecting
// oversized or mis-tagged input before allocating.
func ReadFrame(r io.Reader) (Frame, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Frame{}, err
	}
	switch magic {
	case Magic:
		var rest [headerLen - 4]byte
		if _, err := io.ReadFull(r, rest[:]); err != nil {
			return Frame{}, err
		}
		n := binary.BigEndian.Uint32(rest[1:5])
		if n > MaxFrameLen {
			return Frame{}, fmt.Errorf("wire: frame payload %d exceeds limit", n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return Frame{}, err
		}
		return Frame{Type: Type(rest[0]), Payload: payload}, nil
	case Magic2:
		var rest [headerLenV2 - 4]byte
		if _, err := io.ReadFull(r, rest[:]); err != nil {
			return Frame{}, err
		}
		flags := rest[1]
		if flags&^knownFlags != 0 {
			return Frame{}, fmt.Errorf("wire: unknown v2 flags %#02x", flags)
		}
		n := binary.BigEndian.Uint32(rest[2:6])
		if n > MaxFrameLen {
			return Frame{}, fmt.Errorf("wire: frame payload %d exceeds limit", n)
		}
		f := Frame{Type: Type(rest[0])}
		if flags&flagTrace != 0 {
			var tb [traceBlockLen]byte
			if _, err := io.ReadFull(r, tb[:]); err != nil {
				return Frame{}, err
			}
			f.Trace.TraceID = binary.BigEndian.Uint64(tb[0:8])
			f.Trace.SpanID = binary.BigEndian.Uint64(tb[8:16])
		}
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, err
		}
		return f, nil
	default:
		return Frame{}, ErrBadMagic
	}
}
