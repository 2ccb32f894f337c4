package wire

import "mwskit/internal/codec"

// MessageAAD builds the additional-authenticated-data string binding a
// symmetric message ciphertext to its public envelope (depositing device,
// timestamp, nonce, and key-transport point). Both the smart device
// (Seal) and the receiving client (Open) must derive it identically, so
// it lives next to the wire format.
func MessageAAD(deviceID string, timestamp int64, nonce, u []byte) []byte {
	var e codec.Encoder
	e.Str("mwskit/msg-aad/v1")
	e.Str(deviceID)
	e.Int64(timestamp)
	e.Blob(nonce)
	e.Blob(u)
	return e.Bytes()
}
