package wire

import (
	"context"
	"fmt"
	"strings"

	"mwskit/internal/obsv"
)

// Message is anything that travels as a frame payload.
type Message interface{ Marshal() []byte }

// Op declares one request/response exchange of the protocol — the paper's
// Fig. 4 phases plus the operational ops — exactly once: its frame types,
// their names and the decoders of both payloads. Servers register a
// handler for an Op with Bind, clients perform one with Call; neither
// repeats a frame type or names a decoder.
type Op[Req, Resp Message] struct {
	OpInfo
	decodeReq  func([]byte) (Req, error)
	decodeResp func([]byte) (Resp, error)
}

// OpInfo is an Op with its message types erased: one row of the table
// behind Type.String and the tests that hold every exchange to the
// protocol's conventions.
type OpInfo struct {
	Name, RespName string // Type.String() of the request and the response type
	Req, Resp      Type
	// DecodeReq and DecodeResp run the op's decoders.
	DecodeReq, DecodeResp func([]byte) (Message, error)

	span string // the client-side span Call opens: "rpc.<name>"
}

// The exchanges. Who serves and who calls each is tabulated in DESIGN.md §7.
var (
	OpPing     = declare(TPing, "Ping", TPong, "Pong", UnmarshalEmpty, UnmarshalEmpty)
	OpDeposit  = declare(TDeposit, "Deposit", TDepositResp, "DepositResp", UnmarshalDepositRequest, UnmarshalDepositResponse)
	OpRetrieve = declare(TRetrieve, "Retrieve", TRetrieveResp, "RetrieveResp", UnmarshalRetrieveRequest, UnmarshalRetrieveResponse)
	OpExtract  = declare(TExtract, "Extract", TExtractResp, "ExtractResp", UnmarshalExtractRequest, UnmarshalExtractResponse)
	OpParams   = declare(TParams, "Params", TParamsResp, "ParamsResp", UnmarshalEmpty, UnmarshalParamsResponse)
	OpTrapdoor = declare(TTrapdoor, "Trapdoor", TTrapdoorResp, "TrapdoorResp", UnmarshalTrapdoorRequest, UnmarshalTrapdoorResponse)
	OpStats    = declare(TStats, "Stats", TStatsResp, "StatsResp", UnmarshalEmpty, UnmarshalStatsResponse)
	OpTrace    = declare(TTrace, "Trace", TTraceResp, "TraceResp", UnmarshalTraceRequest, UnmarshalTraceResponse)
)

// ops is the table, in declaration order; typeNames is Type.String's view
// of it.
var (
	ops       []OpInfo
	typeNames = [256]string{TError: "Error"}
)

// declare builds an Op and enters it into the table.
func declare[Req, Resp Message](req Type, name string, resp Type, respName string,
	decodeReq func([]byte) (Req, error), decodeResp func([]byte) (Resp, error)) *Op[Req, Resp] {
	op := &Op[Req, Resp]{
		OpInfo: OpInfo{
			Name: name, RespName: respName, Req: req, Resp: resp,
			DecodeReq:  func(b []byte) (Message, error) { return decodeReq(b) },
			DecodeResp: func(b []byte) (Message, error) { return decodeResp(b) },
			span:       "rpc." + strings.ToLower(name),
		},
		decodeReq:  decodeReq,
		decodeResp: decodeResp,
	}
	ops = append(ops, op.OpInfo)
	typeNames[req], typeNames[resp] = name, respName
	return op
}

// String implements fmt.Stringer for log lines, span names and metric
// labels: the name the op table gives the type.
func (t Type) String() string {
	if name := typeNames[t]; name != "" {
		return name
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Call performs one exchange on an open connection — the single client
// call path. It opens the op's rpc.<name> span under ctx and sends the
// span's own trace context (so the server's request root parents to that
// span, not to its parent; an untraced ctx sends a plain frame), bounds
// the round trip by ctx's deadline when it has one, and checks and
// decodes the response. A refusal comes back as *ErrorMsg.
func Call[Req, Resp Message](ctx context.Context, c *Client, op *Op[Req, Resp], req Req) (resp Resp, err error) {
	ctx, sp := obsv.StartSpan(ctx, op.span)
	defer func() {
		sp.SetErr(err)
		sp.End()
	}()
	deadline, _ := ctx.Deadline()
	f, err := c.roundTrip(deadline, Frame{Type: op.Req, Payload: req.Marshal(), Trace: obsv.ContextTrace(ctx)})
	if err != nil {
		return resp, err
	}
	if f.Type != op.Resp {
		return resp, fmt.Errorf("wire: %s: unexpected response type %s", op.Name, f.Type)
	}
	return op.decodeResp(f.Payload)
}
