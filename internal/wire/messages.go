package wire

import (
	"fmt"

	"mwskit/internal/codec"
	"mwskit/internal/obsv"
)

// decode runs one message's field reader over a payload, insists that the
// payload is consumed exactly, and reports any failure as a wire error —
// the one place the codec's truncation and trailing-bytes errors take the
// package's name.
func decode[T any](b []byte, fields func(d *codec.Decoder, m *T) error) (*T, error) {
	d := codec.NewDecoder(b)
	m := new(T)
	err := fields(d, m)
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return m, nil
}

// decodeList reads a count-prefixed list of at most limit elements — the
// bound every variable-length field carries, so a hostile count cannot
// force an allocation. An empty list decodes to nil.
func decodeList[T any](d *codec.Decoder, limit uint32, what string, elem func(*codec.Decoder, *T) error) ([]T, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("implausible %s count %d", what, n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]T, n)
	for i := range out {
		if err := elem(d, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func decodeBlob(d *codec.Decoder, b *[]byte) (err error) {
	*b, err = d.Blob()
	return err
}

// Empty is the payload-less message: the Ping and Pong frames and the
// Params and Stats requests. A nil *Empty marshals like any other.
type Empty struct{}

// Marshal encodes the message.
func (*Empty) Marshal() []byte { return nil }

// UnmarshalEmpty accepts only an empty payload.
func UnmarshalEmpty(b []byte) (*Empty, error) {
	return decode(b, func(*codec.Decoder, *Empty) error { return nil })
}

// Error codes carried by ErrorMsg.
const (
	CodeBadRequest  uint32 = 1 // malformed or invalid request
	CodeAuth        uint32 = 2 // authentication / authorization failure
	CodeReplay      uint32 = 3 // replayed or stale message
	CodeInternal    uint32 = 4 // server-side failure
	CodeNotFound    uint32 = 5 // unknown entity
	CodeTimeout     uint32 = 6 // request exceeded the server's deadline
	CodeUnavailable uint32 = 7 // server overloaded or shutting down
)

// ErrorMsg is the universal failure response.
type ErrorMsg struct {
	Code    uint32
	Message string
}

// Error implements the error interface so servers can return decoded
// ErrorMsg values directly.
func (e *ErrorMsg) Error() string { return fmt.Sprintf("wire: remote error %d: %s", e.Code, e.Message) }

// Marshal encodes the message.
func (e *ErrorMsg) Marshal() []byte {
	var enc codec.Encoder
	enc.Uint32(e.Code)
	enc.Str(e.Message)
	return enc.Bytes()
}

// UnmarshalErrorMsg decodes an ErrorMsg payload.
func UnmarshalErrorMsg(b []byte) (*ErrorMsg, error) {
	return decode(b, func(d *codec.Decoder, e *ErrorMsg) (err error) {
		if e.Code, err = d.Uint32(); err != nil {
			return err
		}
		e.Message, err = d.Str()
		return err
	})
}

// Device authentication modes for deposits.
const (
	// AuthModeMAC is the paper's §V design: HMAC under a key the device
	// shares with the MWS at registration.
	AuthModeMAC uint8 = 0
	// AuthModeIBS is the paper's §VIII extension: a Cha–Cheon
	// identity-based signature under the device's PKG-extracted key; the
	// MWS verifies with public parameters only, no shared secret.
	AuthModeIBS uint8 = 1
)

// DepositRequest is the SD–MWS phase message (§V.D):
// rP ‖ C ‖ (A ‖ Nonce) ‖ ID_SD ‖ T ‖ MAC.
type DepositRequest struct {
	DeviceID   string
	Timestamp  int64  // Unix seconds (the paper's T)
	Attribute  string // A — visible to the MWS by design; it indexes access control
	Nonce      []byte
	U          []byte // encoded rP
	Ciphertext []byte // C
	Scheme     string // symmetric scheme that produced C
	AuthMode   uint8  // AuthModeMAC or AuthModeIBS
	// Tags are optional PEKS keyword tags (encoded peks.Tag values): the
	// searchable-encryption extension of related work [1]. Opaque to the
	// MWS, covered by the deposit authenticator.
	Tags [][]byte
	MAC  []byte // HMAC tag or encoded IBS signature, per AuthMode
}

// MACParts returns the fields covered by the authenticator (MAC tag or
// signature), in protocol order. Both the device and the SD Authenticator
// authenticate exactly this sequence; AuthMode is included so a tag can
// never be replayed under the other mode.
func (r *DepositRequest) MACParts() [][]byte {
	return [][]byte{
		{r.AuthMode},
		r.U,
		r.Ciphertext,
		[]byte(r.Attribute),
		r.Nonce,
		[]byte(r.DeviceID),
		i64bytes(r.Timestamp),
		[]byte(r.Scheme),
		flattenBlobs(r.Tags),
	}
}

// flattenBlobs length-delimits a blob list into one part so variable-
// count fields have unambiguous coverage under the authenticator.
func flattenBlobs(blobs [][]byte) []byte {
	var e codec.Encoder
	e.Uint32(uint32(len(blobs)))
	for _, b := range blobs {
		e.Blob(b)
	}
	return e.Bytes()
}

// AuthBytes returns the canonical length-delimited concatenation of
// MACParts — the exact byte string an IBS signature covers.
func (r *DepositRequest) AuthBytes() []byte {
	var e codec.Encoder
	for _, p := range r.MACParts() {
		e.Blob(p)
	}
	return e.Bytes()
}

func i64bytes(v int64) []byte {
	var e codec.Encoder
	e.Int64(v)
	return e.Bytes()
}

// Marshal encodes the message.
func (r *DepositRequest) Marshal() []byte {
	var e codec.Encoder
	e.Str(r.DeviceID)
	e.Int64(r.Timestamp)
	e.Str(r.Attribute)
	e.Blob(r.Nonce)
	e.Blob(r.U)
	e.Blob(r.Ciphertext)
	e.Str(r.Scheme)
	e.Uint8(r.AuthMode)
	e.Uint32(uint32(len(r.Tags)))
	for _, tg := range r.Tags {
		e.Blob(tg)
	}
	e.Blob(r.MAC)
	return e.Bytes()
}

// UnmarshalDepositRequest decodes a DepositRequest payload.
func UnmarshalDepositRequest(b []byte) (*DepositRequest, error) {
	return decode(b, func(d *codec.Decoder, r *DepositRequest) (err error) {
		if r.DeviceID, err = d.Str(); err != nil {
			return err
		}
		if r.Timestamp, err = d.Int64(); err != nil {
			return err
		}
		if r.Attribute, err = d.Str(); err != nil {
			return err
		}
		if r.Nonce, err = d.Blob(); err != nil {
			return err
		}
		if r.U, err = d.Blob(); err != nil {
			return err
		}
		if r.Ciphertext, err = d.Blob(); err != nil {
			return err
		}
		if r.Scheme, err = d.Str(); err != nil {
			return err
		}
		if r.AuthMode, err = d.Uint8(); err != nil {
			return err
		}
		if r.Tags, err = decodeList(d, MaxTags, "keyword tag", decodeBlob); err != nil {
			return err
		}
		r.MAC, err = d.Blob()
		return err
	})
}

// MaxTags bounds the keyword tags on one deposit.
const MaxTags = 16

// DepositResponse acknowledges a stored message.
type DepositResponse struct {
	Seq uint64
}

// Marshal encodes the message.
func (r *DepositResponse) Marshal() []byte {
	var e codec.Encoder
	e.Uint64(r.Seq)
	return e.Bytes()
}

// UnmarshalDepositResponse decodes a DepositResponse payload.
func UnmarshalDepositResponse(b []byte) (*DepositResponse, error) {
	return decode(b, func(d *codec.Decoder, r *DepositResponse) (err error) {
		r.Seq, err = d.Uint64()
		return err
	})
}

// RetrieveRequest is the MWS–RC phase login + fetch (§V.D):
// ID_RC ‖ E(HashPassword, ID_RC ‖ T ‖ N). FromSeq/Limit page the result.
type RetrieveRequest struct {
	RC       string
	AuthBlob []byte // sealed authenticator under the credential key
	FromSeq  uint64 // inclusive cursor: only messages with Seq >= FromSeq
	Limit    uint32 // 0 = no limit
	// Trapdoor optionally carries an encoded PEKS trapdoor; when present
	// the MWS returns only messages with a matching keyword tag.
	Trapdoor []byte
}

// Marshal encodes the message.
func (r *RetrieveRequest) Marshal() []byte {
	var e codec.Encoder
	e.Str(r.RC)
	e.Blob(r.AuthBlob)
	e.Uint64(r.FromSeq)
	e.Uint32(r.Limit)
	e.Blob(r.Trapdoor)
	return e.Bytes()
}

// UnmarshalRetrieveRequest decodes a RetrieveRequest payload.
func UnmarshalRetrieveRequest(b []byte) (*RetrieveRequest, error) {
	return decode(b, func(d *codec.Decoder, r *RetrieveRequest) (err error) {
		if r.RC, err = d.Str(); err != nil {
			return err
		}
		if r.AuthBlob, err = d.Blob(); err != nil {
			return err
		}
		if r.FromSeq, err = d.Uint64(); err != nil {
			return err
		}
		if r.Limit, err = d.Uint32(); err != nil {
			return err
		}
		r.Trapdoor, err = d.Blob()
		return err
	})
}

// MessageItem is one retrieved message as delivered to an RC:
// rP ‖ C ‖ (AID ‖ Nonce) ‖ N (§V.D) — note the attribute string has been
// replaced by the RC-specific AID.
type MessageItem struct {
	Seq        uint64
	AID        uint64
	Nonce      []byte
	U          []byte
	Ciphertext []byte
	Scheme     string
	DeviceID   string
	Timestamp  int64
}

func (m *MessageItem) encode(e *codec.Encoder) {
	e.Uint64(m.Seq)
	e.Uint64(m.AID)
	e.Blob(m.Nonce)
	e.Blob(m.U)
	e.Blob(m.Ciphertext)
	e.Str(m.Scheme)
	e.Str(m.DeviceID)
	e.Int64(m.Timestamp)
}

func decodeMessageItem(d *codec.Decoder, m *MessageItem) (err error) {
	if m.Seq, err = d.Uint64(); err != nil {
		return err
	}
	if m.AID, err = d.Uint64(); err != nil {
		return err
	}
	if m.Nonce, err = d.Blob(); err != nil {
		return err
	}
	if m.U, err = d.Blob(); err != nil {
		return err
	}
	if m.Ciphertext, err = d.Blob(); err != nil {
		return err
	}
	if m.Scheme, err = d.Str(); err != nil {
		return err
	}
	if m.DeviceID, err = d.Str(); err != nil {
		return err
	}
	m.Timestamp, err = d.Int64()
	return err
}

// RetrieveResponse carries the PKG token plus the matching messages.
type RetrieveResponse struct {
	TokenBlob []byte // sealed ticket.Token for the PKG phase
	Items     []MessageItem
}

// Marshal encodes the message.
func (r *RetrieveResponse) Marshal() []byte {
	var e codec.Encoder
	e.Blob(r.TokenBlob)
	e.Uint32(uint32(len(r.Items)))
	for i := range r.Items {
		r.Items[i].encode(&e)
	}
	return e.Bytes()
}

// UnmarshalRetrieveResponse decodes a RetrieveResponse payload.
func UnmarshalRetrieveResponse(b []byte) (*RetrieveResponse, error) {
	return decode(b, func(d *codec.Decoder, r *RetrieveResponse) (err error) {
		if r.TokenBlob, err = d.Blob(); err != nil {
			return err
		}
		r.Items, err = decodeList(d, 1<<20, "item", decodeMessageItem)
		return err
	})
}

// ExtractItem names one private key the RC needs: AID ‖ Nonce (§V.D,
// RC–PKG phase). The RC never sees the attribute behind the AID.
type ExtractItem struct {
	AID   uint64
	Nonce []byte
}

// ExtractRequest is the RC–PKG phase message:
// ID_RC ‖ Ticket ‖ Authenticator ‖ (AID ‖ Nonce)*.
type ExtractRequest struct {
	RC            string
	TicketBlob    []byte
	Authenticator []byte
	Items         []ExtractItem
}

// Marshal encodes the message.
func (r *ExtractRequest) Marshal() []byte {
	var e codec.Encoder
	e.Str(r.RC)
	e.Blob(r.TicketBlob)
	e.Blob(r.Authenticator)
	e.Uint32(uint32(len(r.Items)))
	for _, it := range r.Items {
		e.Uint64(it.AID)
		e.Blob(it.Nonce)
	}
	return e.Bytes()
}

// UnmarshalExtractRequest decodes an ExtractRequest payload.
func UnmarshalExtractRequest(b []byte) (*ExtractRequest, error) {
	return decode(b, func(d *codec.Decoder, r *ExtractRequest) (err error) {
		if r.RC, err = d.Str(); err != nil {
			return err
		}
		if r.TicketBlob, err = d.Blob(); err != nil {
			return err
		}
		if r.Authenticator, err = d.Blob(); err != nil {
			return err
		}
		r.Items, err = decodeList(d, 1<<20, "extract", func(d *codec.Decoder, it *ExtractItem) (err error) {
			if it.AID, err = d.Uint64(); err != nil {
				return err
			}
			it.Nonce, err = d.Blob()
			return err
		})
		return err
	})
}

// ExtractResponse returns one sealed private key per requested item
// (order-preserving). Each key is the encoded sI point encrypted under
// the RC–PKG session key — the paper's "secure channel".
type ExtractResponse struct {
	SealedKeys [][]byte
}

// Marshal encodes the message.
func (r *ExtractResponse) Marshal() []byte {
	var e codec.Encoder
	e.Uint32(uint32(len(r.SealedKeys)))
	for _, k := range r.SealedKeys {
		e.Blob(k)
	}
	return e.Bytes()
}

// UnmarshalExtractResponse decodes an ExtractResponse payload.
func UnmarshalExtractResponse(b []byte) (*ExtractResponse, error) {
	return decode(b, func(d *codec.Decoder, r *ExtractResponse) (err error) {
		r.SealedKeys, err = decodeList(d, 1<<20, "key", decodeBlob)
		return err
	})
}

// ParamsResponse answers the (Empty) request for the public IBE
// parameters — the paper's SDs "receive system parameters" from the PKG —
// naming the pairing preset and carrying P_pub.
type ParamsResponse struct {
	Preset string // pairing preset name, e.g. "bf80"
	PPub   []byte // encoded sP
}

// Marshal encodes the message.
func (r *ParamsResponse) Marshal() []byte {
	var e codec.Encoder
	e.Str(r.Preset)
	e.Blob(r.PPub)
	return e.Bytes()
}

// UnmarshalParamsResponse decodes a ParamsResponse payload.
func UnmarshalParamsResponse(b []byte) (*ParamsResponse, error) {
	return decode(b, func(d *codec.Decoder, r *ParamsResponse) (err error) {
		if r.Preset, err = d.Str(); err != nil {
			return err
		}
		r.PPub, err = d.Blob()
		return err
	})
}

// TrapdoorRequest asks the PKG for a PEKS keyword trapdoor. The caller
// authenticates exactly as for Extract (ticket + fresh authenticator);
// the keyword itself travels sealed under the RC–PKG session key so the
// network never sees which term is being searched.
type TrapdoorRequest struct {
	RC            string
	TicketBlob    []byte
	Authenticator []byte
	SealedKeyword []byte // AES-256-GCM under the session key
}

// Marshal encodes the message.
func (r *TrapdoorRequest) Marshal() []byte {
	var e codec.Encoder
	e.Str(r.RC)
	e.Blob(r.TicketBlob)
	e.Blob(r.Authenticator)
	e.Blob(r.SealedKeyword)
	return e.Bytes()
}

// UnmarshalTrapdoorRequest decodes a TrapdoorRequest payload.
func UnmarshalTrapdoorRequest(b []byte) (*TrapdoorRequest, error) {
	return decode(b, func(d *codec.Decoder, r *TrapdoorRequest) (err error) {
		if r.RC, err = d.Str(); err != nil {
			return err
		}
		if r.TicketBlob, err = d.Blob(); err != nil {
			return err
		}
		if r.Authenticator, err = d.Blob(); err != nil {
			return err
		}
		r.SealedKeyword, err = d.Blob()
		return err
	})
}

// TrapdoorResponse returns the trapdoor sealed under the session key.
type TrapdoorResponse struct {
	SealedTrapdoor []byte
}

// Marshal encodes the message.
func (r *TrapdoorResponse) Marshal() []byte {
	var e codec.Encoder
	e.Blob(r.SealedTrapdoor)
	return e.Bytes()
}

// UnmarshalTrapdoorResponse decodes a TrapdoorResponse payload.
func UnmarshalTrapdoorResponse(b []byte) (*TrapdoorResponse, error) {
	return decode(b, func(d *codec.Decoder, r *TrapdoorResponse) (err error) {
		r.SealedTrapdoor, err = d.Blob()
		return err
	})
}

// OpStat is one operation's counters and latency summary as reported over
// the wire (durations in nanoseconds, so the encoding is architecture- and
// clock-independent).
type OpStat struct {
	Op       string
	Requests uint64
	Errors   uint64
	MinNs    int64
	MeanNs   int64
	P50Ns    int64
	P90Ns    int64
	P99Ns    int64
	MaxNs    int64
}

// StatsResponse answers a TStats introspection request with one OpStat per
// instrumented operation, sorted by op name, plus labeled counter and
// gauge series in obsv's own sample type: crypto-stage counters and
// error-by-code series, WAL latency percentiles and per-shard sizes. The
// two blocks follow the op list in every response, empty or not. A counter
// travels as an unsigned and a gauge as a signed eight-byte field, which
// are the same bytes.
type StatsResponse struct {
	Ops      []OpStat
	Counters []obsv.Sample
	Gauges   []obsv.Sample
}

// Marshal encodes the message.
func (r *StatsResponse) Marshal() []byte {
	var e codec.Encoder
	e.Uint32(uint32(len(r.Ops)))
	for _, op := range r.Ops {
		e.Str(op.Op)
		e.Uint64(op.Requests)
		e.Uint64(op.Errors)
		e.Int64(op.MinNs)
		e.Int64(op.MeanNs)
		e.Int64(op.P50Ns)
		e.Int64(op.P90Ns)
		e.Int64(op.P99Ns)
		e.Int64(op.MaxNs)
	}
	encodeSamples(&e, r.Counters)
	encodeSamples(&e, r.Gauges)
	return e.Bytes()
}

// encodeSamples / decodeSamples carry one bounded block of series, each
// with a bounded label set.
func encodeSamples(e *codec.Encoder, samples []obsv.Sample) {
	e.Uint32(uint32(len(samples)))
	for _, s := range samples {
		e.Str(s.Name)
		encodeLabels(e, s.Labels)
		e.Int64(s.Value)
	}
}

func decodeSamples(d *codec.Decoder) ([]obsv.Sample, error) {
	return decodeList(d, 1<<16, "series", func(d *codec.Decoder, s *obsv.Sample) (err error) {
		if s.Name, err = d.Str(); err != nil {
			return err
		}
		if s.Labels, err = decodeLabels(d, 64); err != nil {
			return err
		}
		s.Value, err = d.Int64()
		return err
	})
}

// encodeLabels / decodeLabels carry the label set of a series or the
// attributes of a span, at most limit of them.
func encodeLabels(e *codec.Encoder, labels []obsv.Label) {
	e.Uint32(uint32(len(labels)))
	for _, l := range labels {
		e.Str(l.Key)
		e.Str(l.Value)
	}
}

func decodeLabels(d *codec.Decoder, limit uint32) ([]obsv.Label, error) {
	return decodeList(d, limit, "label", func(d *codec.Decoder, l *obsv.Label) (err error) {
		if l.Key, err = d.Str(); err != nil {
			return err
		}
		l.Value, err = d.Str()
		return err
	})
}

// UnmarshalStatsResponse decodes a StatsResponse payload.
func UnmarshalStatsResponse(b []byte) (*StatsResponse, error) {
	return decode(b, func(d *codec.Decoder, r *StatsResponse) (err error) {
		r.Ops, err = decodeList(d, 1<<16, "op", func(d *codec.Decoder, op *OpStat) (err error) {
			if op.Op, err = d.Str(); err != nil {
				return err
			}
			if op.Requests, err = d.Uint64(); err != nil {
				return err
			}
			if op.Errors, err = d.Uint64(); err != nil {
				return err
			}
			for _, dst := range []*int64{&op.MinNs, &op.MeanNs, &op.P50Ns, &op.P90Ns, &op.P99Ns, &op.MaxNs} {
				if *dst, err = d.Int64(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if r.Counters, err = decodeSamples(d); err != nil {
			return err
		}
		r.Gauges, err = decodeSamples(d)
		return err
	})
}
