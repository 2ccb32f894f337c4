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

// Magic opens a frame that carries no extension: magic, type, length,
// payload — the 9-byte header every peer has spoken since version 1.
var Magic = [4]byte{'M', 'W', 'S', '1'}

// Magic2 opens a frame whose header carries a flags byte after the type
// and, selected by the flags, extension blocks between header and payload
// (today: a trace context). There is one grammar,
//
//	magic type [flags] len [trace] payload
//
// written by WriteFrame and read by ReadFrame: a frame without an
// extension is written under Magic, byte for byte as before extensions
// existed, and every reader accepts both, so no peer negotiates anything.
var Magic2 = [4]byte{'M', 'W', 'S', '2'}

// Type tags the payload carried by a frame.
type Type uint8

// Frame types. Requests are odd, their responses even; TError may answer
// any request. Each request/response pair is declared once, with its name
// and its decoders, in the op table (ops.go).
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

// MaxFrameLen bounds a frame payload (16 MiB) so a malicious peer cannot
// force unbounded allocation.
const MaxFrameLen = 16 << 20

// Frame is one protocol message. Trace is the optional extension: a zero
// Trace is written under Magic, a valid one under Magic2 with the trace
// block.
type Frame struct {
	Type    Type
	Payload []byte
	Trace   obsv.TraceContext
}

// Header sizes: magic(4) + type(1) + len(4), one more for the flags byte
// of an extended header.
const (
	headerLen    = 9
	headerLenExt = 10
)

// Extended-header flag bits.
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

// WriteFrame writes a frame to w; the header is extended only when the
// frame carries an extension.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrameLen {
		return fmt.Errorf("wire: frame payload %d exceeds limit", len(f.Payload))
	}
	var hdr [headerLenExt + traceBlockLen]byte
	copy(hdr[:4], Magic[:])
	hdr[4] = byte(f.Type)
	n := 5
	traced := f.Trace.Valid()
	if traced {
		copy(hdr[:4], Magic2[:])
		hdr[5] = flagTrace
		n = 6
	}
	binary.BigEndian.PutUint32(hdr[n:], uint32(len(f.Payload)))
	n += 4
	if traced {
		binary.BigEndian.PutUint64(hdr[n:], f.Trace.TraceID)
		binary.BigEndian.PutUint64(hdr[n+8:], f.Trace.SpanID)
		n += traceBlockLen
	}
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ErrBadMagic indicates the peer is not speaking the MWS protocol.
var ErrBadMagic = errors.New("wire: bad magic")

// ReadFrame reads one frame from r, rejecting oversized or mis-tagged
// input before allocating.
func ReadFrame(r io.Reader) (Frame, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return Frame{}, err
	}
	n := headerLen - 4
	switch magic {
	case Magic:
	case Magic2:
		n = headerLenExt - 4
	default:
		return Frame{}, ErrBadMagic
	}
	var rest [headerLenExt - 4]byte
	if _, err := io.ReadFull(r, rest[:n]); err != nil {
		return Frame{}, err
	}
	f := Frame{Type: Type(rest[0])}
	var flags uint8
	if magic == Magic2 {
		flags = rest[1]
	}
	if flags&^knownFlags != 0 {
		return Frame{}, fmt.Errorf("wire: unknown header flags %#02x", flags)
	}
	size := binary.BigEndian.Uint32(rest[n-4 : n])
	if size > MaxFrameLen {
		return Frame{}, fmt.Errorf("wire: frame payload %d exceeds limit", size)
	}
	if flags&flagTrace != 0 {
		var tb [traceBlockLen]byte
		if _, err := io.ReadFull(r, tb[:]); err != nil {
			return Frame{}, err
		}
		f.Trace.TraceID = binary.BigEndian.Uint64(tb[0:8])
		f.Trace.SpanID = binary.BigEndian.Uint64(tb[8:16])
	}
	f.Payload = make([]byte, size)
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return Frame{}, err
	}
	return f, nil
}
