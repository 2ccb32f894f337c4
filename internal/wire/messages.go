package wire

import (
	"fmt"

	"mwskit/internal/codec"
	"mwskit/internal/obsv"
)

// decoded finishes a read walk: the payload must be consumed exactly, and
// any failure is reported as a wire error — the one place the codec's
// truncation, count and trailing-bytes errors take the package's name.
func decoded[T any](m *T, c *codec.Walker) (*T, error) {
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return m, nil
}

// Empty is the payload-less message: the Ping and Pong frames and the
// Params and Stats requests. A nil *Empty marshals like any other.
type Empty struct{}

// Marshal encodes the message.
func (*Empty) Marshal() []byte { return nil }

// UnmarshalEmpty accepts only an empty payload.
func UnmarshalEmpty(b []byte) (*Empty, error) {
	c := codec.Reader(b)
	return decoded(new(Empty), &c)
}

// Error codes carried by ErrorMsg.
const (
	CodeBadRequest  uint32 = 1 // malformed or invalid request
	CodeAuth        uint32 = 2 // authentication / authorization failure
	CodeReplay      uint32 = 3 // replayed or stale message
	CodeInternal    uint32 = 4 // server-side failure
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

func (e *ErrorMsg) walk(c *codec.Walker) {
	c.Uint32(&e.Code)
	c.Str(&e.Message)
}

// Marshal encodes the message.
func (e *ErrorMsg) Marshal() []byte {
	var c codec.Walker
	e.walk(&c)
	return c.Bytes()
}

// UnmarshalErrorMsg decodes an ErrorMsg payload.
func UnmarshalErrorMsg(b []byte) (*ErrorMsg, error) {
	e, c := new(ErrorMsg), codec.Reader(b)
	e.walk(&c)
	return decoded(e, &c)
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

func (r *DepositRequest) walk(c *codec.Walker) {
	c.Str(&r.DeviceID)
	c.Int64(&r.Timestamp)
	c.Str(&r.Attribute)
	c.Blob(&r.Nonce)
	c.Blob(&r.U)
	c.Blob(&r.Ciphertext)
	c.Str(&r.Scheme)
	c.Uint8(&r.AuthMode)
	for i := range codec.List32(c, &r.Tags, MaxTags, 4) {
		c.Blob(&r.Tags[i])
	}
	c.Blob(&r.MAC)
}

// Marshal encodes the message.
func (r *DepositRequest) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalDepositRequest decodes a DepositRequest payload.
func UnmarshalDepositRequest(b []byte) (*DepositRequest, error) {
	r, c := new(DepositRequest), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
}

// MaxTags bounds the keyword tags on one deposit.
const MaxTags = 16

// DepositResponse acknowledges a stored message.
type DepositResponse struct {
	Seq uint64
}

func (r *DepositResponse) walk(c *codec.Walker) { c.Uint64(&r.Seq) }

// Marshal encodes the message.
func (r *DepositResponse) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalDepositResponse decodes a DepositResponse payload.
func UnmarshalDepositResponse(b []byte) (*DepositResponse, error) {
	r, c := new(DepositResponse), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
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

func (r *RetrieveRequest) walk(c *codec.Walker) {
	c.Str(&r.RC)
	c.Blob(&r.AuthBlob)
	c.Uint64(&r.FromSeq)
	c.Uint32(&r.Limit)
	c.Blob(&r.Trapdoor)
}

// Marshal encodes the message.
func (r *RetrieveRequest) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalRetrieveRequest decodes a RetrieveRequest payload.
func UnmarshalRetrieveRequest(b []byte) (*RetrieveRequest, error) {
	r, c := new(RetrieveRequest), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
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

// messageItemWidth is the fewest bytes a MessageItem's walk takes: Seq,
// AID and Timestamp, and the length prefixes of its three blobs and two
// strings.
const messageItemWidth = 3*8 + 5*4

func (m *MessageItem) walk(c *codec.Walker) {
	c.Uint64(&m.Seq)
	c.Uint64(&m.AID)
	c.Blob(&m.Nonce)
	c.Blob(&m.U)
	c.Blob(&m.Ciphertext)
	c.Str(&m.Scheme)
	c.Str(&m.DeviceID)
	c.Int64(&m.Timestamp)
}

// RetrieveResponse carries the PKG token plus the matching messages.
type RetrieveResponse struct {
	TokenBlob []byte // sealed ticket.Token for the PKG phase
	Items     []MessageItem
}

func (r *RetrieveResponse) walk(c *codec.Walker) {
	c.Blob(&r.TokenBlob)
	for i := range codec.List32(c, &r.Items, 1<<20, messageItemWidth) {
		r.Items[i].walk(c)
	}
}

// Marshal encodes the message.
func (r *RetrieveResponse) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalRetrieveResponse decodes a RetrieveResponse payload.
func UnmarshalRetrieveResponse(b []byte) (*RetrieveResponse, error) {
	r, c := new(RetrieveResponse), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
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

func (r *ExtractRequest) walk(c *codec.Walker) {
	c.Str(&r.RC)
	c.Blob(&r.TicketBlob)
	c.Blob(&r.Authenticator)
	for i := range codec.List32(c, &r.Items, 1<<20, 8+4) {
		c.Uint64(&r.Items[i].AID)
		c.Blob(&r.Items[i].Nonce)
	}
}

// Marshal encodes the message.
func (r *ExtractRequest) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalExtractRequest decodes an ExtractRequest payload.
func UnmarshalExtractRequest(b []byte) (*ExtractRequest, error) {
	r, c := new(ExtractRequest), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
}

// ExtractResponse returns one sealed private key per requested item
// (order-preserving). Each key is the encoded sI point encrypted under
// the RC–PKG session key — the paper's "secure channel".
type ExtractResponse struct {
	SealedKeys [][]byte
}

func (r *ExtractResponse) walk(c *codec.Walker) {
	for i := range codec.List32(c, &r.SealedKeys, 1<<20, 4) {
		c.Blob(&r.SealedKeys[i])
	}
}

// Marshal encodes the message.
func (r *ExtractResponse) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalExtractResponse decodes an ExtractResponse payload.
func UnmarshalExtractResponse(b []byte) (*ExtractResponse, error) {
	r, c := new(ExtractResponse), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
}

// ParamsResponse answers the (Empty) request for the public IBE
// parameters — the paper's SDs "receive system parameters" from the PKG —
// naming the pairing preset and carrying P_pub.
type ParamsResponse struct {
	Preset string // pairing preset name, e.g. "bf80"
	PPub   []byte // encoded sP
}

func (r *ParamsResponse) walk(c *codec.Walker) {
	c.Str(&r.Preset)
	c.Blob(&r.PPub)
}

// Marshal encodes the message.
func (r *ParamsResponse) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalParamsResponse decodes a ParamsResponse payload.
func UnmarshalParamsResponse(b []byte) (*ParamsResponse, error) {
	r, c := new(ParamsResponse), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
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

func (r *TrapdoorRequest) walk(c *codec.Walker) {
	c.Str(&r.RC)
	c.Blob(&r.TicketBlob)
	c.Blob(&r.Authenticator)
	c.Blob(&r.SealedKeyword)
}

// Marshal encodes the message.
func (r *TrapdoorRequest) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalTrapdoorRequest decodes a TrapdoorRequest payload.
func UnmarshalTrapdoorRequest(b []byte) (*TrapdoorRequest, error) {
	r, c := new(TrapdoorRequest), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
}

// TrapdoorResponse returns the trapdoor sealed under the session key.
type TrapdoorResponse struct {
	SealedTrapdoor []byte
}

func (r *TrapdoorResponse) walk(c *codec.Walker) { c.Blob(&r.SealedTrapdoor) }

// Marshal encodes the message.
func (r *TrapdoorResponse) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalTrapdoorResponse decodes a TrapdoorResponse payload.
func UnmarshalTrapdoorResponse(b []byte) (*TrapdoorResponse, error) {
	r, c := new(TrapdoorResponse), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
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

func (op *OpStat) walk(c *codec.Walker) {
	c.Str(&op.Op)
	c.Uint64(&op.Requests)
	c.Uint64(&op.Errors)
	c.Int64(&op.MinNs)
	c.Int64(&op.MeanNs)
	c.Int64(&op.P50Ns)
	c.Int64(&op.P90Ns)
	c.Int64(&op.P99Ns)
	c.Int64(&op.MaxNs)
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

func (r *StatsResponse) walk(c *codec.Walker) {
	for i := range codec.List32(c, &r.Ops, 1<<16, 4+8*8) { // Op, then eight counters and latencies
		r.Ops[i].walk(c)
	}
	walkSamples(c, &r.Counters)
	walkSamples(c, &r.Gauges)
}

// walkSamples walks one bounded block of series, each with a bounded
// label set.
func walkSamples(c *codec.Walker, samples *[]obsv.Sample) {
	ss := codec.List32(c, samples, 1<<16, 4+4+8) // Name, the label count, Value
	for i := range ss {
		c.Str(&ss[i].Name)
		walkLabels(c, &ss[i].Labels, 64)
		c.Int64(&ss[i].Value)
	}
}

// walkLabels walks the label set of a series or the attributes of a
// span, at most limit of them.
func walkLabels(c *codec.Walker, labels *[]obsv.Label, limit uint32) {
	ls := codec.List32(c, labels, limit, 4+4)
	for i := range ls {
		c.Str(&ls[i].Key)
		c.Str(&ls[i].Value)
	}
}

// Marshal encodes the message.
func (r *StatsResponse) Marshal() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

// UnmarshalStatsResponse decodes a StatsResponse payload.
func UnmarshalStatsResponse(b []byte) (*StatsResponse, error) {
	r, c := new(StatsResponse), codec.Reader(b)
	r.walk(&c)
	return decoded(r, &c)
}
