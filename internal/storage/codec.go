package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mwskit/internal/attr"
	"mwskit/internal/codec"
)

// Each record format is one walk over internal/codec's fields, run to
// encode and to decode, so the two cannot drift apart. Decoding returns an
// error on truncation, so corrupt records can never panic the store.

// Message is one deposited record: exactly the tuple the paper stores
// after SD authentication — rP ‖ C ‖ (A ‖ Nonce) (§V.D "SD – MWS Phase")
// — plus bookkeeping (depositing device, scheme, timestamp).
type Message struct {
	// Seq is the store-assigned sequence number, unique and increasing.
	Seq uint64
	// DeviceID identifies the depositing smart device.
	DeviceID string
	// Attribute is the recipient-characterizing attribute the message was
	// encrypted toward. Stored server-side only; never sent to RCs in the
	// clear (they see the AID instead).
	Attribute attr.Attribute
	// Nonce is the per-message freshness value (revocation device).
	Nonce attr.Nonce
	// U is the encoded key-transport point rP.
	U []byte
	// Ciphertext is the symmetric ciphertext C.
	Ciphertext []byte
	// Scheme names the symmetric scheme that produced Ciphertext.
	Scheme string
	// Timestamp is the deposit time in Unix seconds.
	Timestamp int64
	// Tags are opaque PEKS keyword tags deposited with the message
	// (searchable-encryption extension); may be empty.
	Tags [][]byte
}

// walk takes m as a message payload: the record format, live and pinned
// by the sharded-4 golden. It carries no sequence number; the shard frame
// around it does (frameShardRecord).
func (m *Message) walk(c *codec.Walker) {
	c.Str(&m.DeviceID)
	c.Str((*string)(&m.Attribute))
	c.Fixed(m.Nonce[:])
	c.Blob(&m.U)
	c.Blob(&m.Ciphertext)
	c.Str(&m.Scheme)
	c.Int64(&m.Timestamp)
	for i := range codec.List64(c, &m.Tags, 1<<16, 4) {
		c.Blob(&m.Tags[i])
	}
}

func (m *Message) encode() []byte {
	var c codec.Walker
	m.walk(&c)
	return c.Bytes()
}

// decodeMessage parses a message payload, stamping the caller-supplied
// sequence number. It is where the codec's errors take the package's
// name.
func decodeMessage(seq uint64, payload []byte) (*Message, error) {
	m, c := &Message{Seq: seq}, codec.Reader(payload)
	m.walk(&c)
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("storage: bad record: %w", err)
	}
	return m, nil
}

// frameShardRecord builds a shard WAL record, [8B seq][message payload]:
// sequence numbers are provider-wide, so each record carries its own.
func frameShardRecord(seq uint64, payload []byte) []byte {
	return append(binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(payload)), seq), payload...)
}

func decodeShardRecord(record []byte) (*Message, error) {
	if len(record) < 8 {
		return nil, errors.New("storage: short shard record")
	}
	return decodeMessage(binary.BigEndian.Uint64(record[:8]), record[8:])
}

// KV log record ops.
const (
	kvOpPut    = 1
	kvOpDelete = 2
)

// kvRecord is one KV log record: a put of value under key, or a delete
// of key, which carries no value.
type kvRecord struct {
	op    uint8
	key   string
	value []byte
}

func (r *kvRecord) walk(c *codec.Walker) {
	c.Uint8(&r.op)
	c.Str(&r.key)
	if r.op == kvOpPut {
		c.Blob(&r.value)
	}
}

func (r kvRecord) encode() []byte {
	var c codec.Walker
	r.walk(&c)
	return c.Bytes()
}

func decodeKVRecord(payload []byte) (r kvRecord, err error) {
	c := codec.Reader(payload)
	r.walk(&c)
	return r, c.Done()
}
