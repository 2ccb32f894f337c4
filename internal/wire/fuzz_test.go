package wire

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDecodersNeverPanic feeds random byte strings to every wire decoder
// — both decoders of every op in the table, and ErrorMsg's: each must
// return an error or a value, never panic — a panicking decoder would let
// any network peer kill the server goroutine.
func TestDecodersNeverPanic(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"ErrorMsg": func(b []byte) error { _, err := UnmarshalErrorMsg(b); return err },
	}
	for _, op := range ops {
		decoders[op.Name+"Request"] = op.DecodeReq
		decoders[op.Name+"Response"] = op.DecodeResp
	}
	for name, dec := range decoders {
		t.Run(name, func(t *testing.T) {
			if err := quick.Check(func(b []byte) bool {
				_ = dec(b)
				return true
			}, &quick.Config{MaxCount: 400}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDecodersSurviveMutatedValidInput mutates a valid encoding of every
// message in the op table — these reach deeper decoder paths than pure
// random bytes.
func TestDecodersSurviveMutatedValidInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, op := range ops {
		s := sampleOf(t, op)
		for _, side := range []struct {
			valid  []byte
			decode func([]byte) error
		}{{s.req.Marshal(), op.DecodeReq}, {s.resp.Marshal(), op.DecodeResp}} {
			if len(side.valid) == 0 {
				continue // an Empty message has nothing to mutate
			}
			for i := 0; i < 500; i++ {
				mutated := append([]byte(nil), side.valid...)
				switch rng.Intn(3) {
				case 0: // flip a byte
					mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
				case 1: // truncate
					mutated = mutated[:rng.Intn(len(mutated))]
				case 2: // extend with junk
					junk := make([]byte, 1+rng.Intn(16))
					rng.Read(junk)
					mutated = append(mutated, junk...)
				}
				_ = side.decode(mutated) // must not panic
			}
		}
	}
}

// TestGoldenEncodings pins the exact wire bytes of representative
// messages so the protocol cannot drift silently between versions.
func TestGoldenEncodings(t *testing.T) {
	dr := &DepositResponse{Seq: 0x0102030405060708}
	if got := hex.EncodeToString(dr.Marshal()); got != "0102030405060708" {
		t.Errorf("DepositResponse golden = %s", got)
	}
	em := &ErrorMsg{Code: CodeAuth, Message: "no"}
	if got := hex.EncodeToString(em.Marshal()); got != "00000002000000026e6f" {
		t.Errorf("ErrorMsg golden = %s", got)
	}
	rr := &RetrieveRequest{RC: "a", AuthBlob: []byte{0xFF}, FromSeq: 1, Limit: 2, Trapdoor: nil}
	want := "0000000161" + // RC "a"
		"00000001ff" + // auth blob
		"0000000000000001" + // from seq
		"00000002" + // limit
		"00000000" // empty trapdoor
	if got := hex.EncodeToString(rr.Marshal()); got != want {
		t.Errorf("RetrieveRequest golden:\n got %s\nwant %s", got, want)
	}
	// Frame header golden: magic + type + length.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TDeposit, Payload: []byte{0xAB}}); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != "4d5753310100000001ab" {
		t.Errorf("frame golden = %s", got)
	}
}
