// Package wire is a mwslint fixture: composing its message types or
// calling into it from other packages is a plainflow framing sink.
package wire

// Record is one framed message.
type Record struct {
	Payload []byte
}

// Encode frames a payload.
func Encode(payload []byte) []byte { return payload }
