package wire

import (
	"bytes"
	"runtime"
	"testing"

	"mwskit/internal/codec"
)

// hostile builds a payload from the fields before a list and a count that
// claims the list's limit, with nothing behind it.
func hostile(fields func(e *codec.Encoder), limit uint32) []byte {
	var e codec.Encoder
	fields(&e)
	e.Uint32(limit)
	return e.Bytes()
}

// zeroFilled builds a payload of total bytes from the fields before a list,
// a count that claims every byte left, up to the list's limit, and zeros
// for the rest: a count a one-byte-per-element guard lets through, though
// no element fits in one byte.
func zeroFilled(fields func(e *codec.Encoder), limit uint32, total int) []byte {
	var e codec.Encoder
	fields(&e)
	left := total - len(e.Bytes()) - 4
	e.Uint32(min(limit, uint32(left)))
	return append(e.Bytes(), make([]byte, left)...)
}

// TestHostileListCounts: every list-bearing decoder refuses a count that
// the bytes after it cannot hold, before it makes the list. A decoder that
// made the list first would let a few bytes from an unauthenticated peer
// cost the server up to the list's limit in elements, and one that
// counted a byte per element would let a megabyte of zeros cost 32 MiB of
// extract items (12 bytes on the wire, 32 in memory) or 128 MiB of
// message items (44 and 128).
func TestHostileListCounts(t *testing.T) {
	none := func(*codec.Encoder) {}
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) (Message, error)
	}{
		{"ExtractRequest items", hostile(func(e *codec.Encoder) {
			e.Str("")
			e.Blob(nil)
			e.Blob(nil)
		}, 1<<20), OpExtract.DecodeReq},
		{"ExtractResponse keys", hostile(none, 1<<20), OpExtract.DecodeResp},
		{"RetrieveResponse items", hostile(func(e *codec.Encoder) { e.Blob(nil) }, 1<<20), OpRetrieve.DecodeResp},
		{"DepositRequest tags", hostile(func(e *codec.Encoder) {
			e.Str("")
			e.Int64(0)
			e.Str("")
			e.Blob(nil)
			e.Blob(nil)
			e.Blob(nil)
			e.Str("")
			e.Uint8(AuthModeMAC)
		}, MaxTags), OpDeposit.DecodeReq},
		{"StatsResponse ops", hostile(none, 1<<16), OpStats.DecodeResp},
		{"StatsResponse counters", hostile(func(e *codec.Encoder) { e.Uint32(0) }, 1<<16), OpStats.DecodeResp},
		{"StatsResponse gauges", hostile(func(e *codec.Encoder) {
			e.Uint32(0)
			e.Uint32(0)
		}, 1<<16), OpStats.DecodeResp},
		{"StatsResponse labels", hostile(func(e *codec.Encoder) {
			e.Uint32(0)
			e.Uint32(1) // one counter
			e.Str("")
		}, 64), OpStats.DecodeResp},
		{"TraceResponse spans", hostile(none, maxTraceSpans), OpTrace.DecodeResp},
		{"TraceResponse attributes", hostile(func(e *codec.Encoder) {
			e.Uint32(1) // one span
			e.Uint64(1)
			e.Uint64(2)
			e.Uint64(3)
			e.Str("")
			e.Str("")
			e.Int64(0)
			e.Int64(0)
			e.Str("")
		}, 256), OpTrace.DecodeResp},
	} {
		if _, err := c.decode(c.payload); err == nil {
			t.Errorf("%s: a %d-byte payload claiming the list's limit is accepted", c.name, len(c.payload))
			continue
		}
		if n := bytesPerRun(10, func() { _, _ = c.decode(c.payload) }); n >= 4<<10 {
			t.Errorf("%s: refusing a %d-byte payload allocates %d bytes", c.name, len(c.payload), n)
		}
	}
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) (Message, error)
	}{
		{"ExtractRequest items, 1 MiB of zeros", zeroFilled(func(e *codec.Encoder) {
			e.Str("")
			e.Blob(nil)
			e.Blob(nil)
		}, 1<<20, 1<<20), OpExtract.DecodeReq},
		{"RetrieveResponse items, 1 MiB of zeros", zeroFilled(func(e *codec.Encoder) { e.Blob(nil) }, 1<<20, 1<<20), OpRetrieve.DecodeResp},
	} {
		if _, err := c.decode(c.payload); err == nil {
			t.Errorf("%s: a count its elements cannot fill is accepted", c.name)
			continue
		}
		if n := bytesPerRun(3, func() { _, _ = c.decode(c.payload) }); n >= 64<<10 {
			t.Errorf("%s: refusing it allocates %d bytes", c.name, n)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes, the figure of
// testing.Benchmark's AllocedBytesPerOp without its one-second run: the
// average heap bytes a call of f allocates over runs calls, after one
// call to warm up.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestCodecAllocs pins the allocations of a Marshal and Unmarshal round
// trip of a deposit and of a 256-message page. The walk that states each
// format must keep its walker on the stack: a walker that escapes to the
// heap, as one handed to a func value does, costs one more allocation on
// each side it escapes on. The figures before the walk were 21 and 1813
// (Go 1.24, linux/amd64), when each string field cost two.
func TestCodecAllocs(t *testing.T) {
	page := &RetrieveResponse{TokenBlob: bytes.Repeat([]byte{7}, 600)}
	for i := range 256 {
		page.Items = append(page.Items, MessageItem{
			Seq: uint64(i), AID: 3, Nonce: bytes.Repeat([]byte{9}, 16), U: bytes.Repeat([]byte{4}, 67),
			Ciphertext: bytes.Repeat([]byte{5}, 128), Scheme: "AES-128-GCM", DeviceID: "meter-7", Timestamp: 1278000000,
		})
	}
	deposit := samples["Deposit"].req.(*DepositRequest)
	for _, c := range []struct {
		name      string
		roundTrip func() error
		ceiling   float64
	}{
		{"DepositRequest", func() error { _, err := UnmarshalDepositRequest(deposit.Marshal()); return err }, 17},
		{"RetrieveResponse/256", func() error { _, err := UnmarshalRetrieveResponse(page.Marshal()); return err }, 1300},
	} {
		if err := c.roundTrip(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = c.roundTrip() }); n > c.ceiling {
			t.Errorf("%s: a round trip allocates %v times, the ceiling is %v", c.name, n, c.ceiling)
		}
	}
}
