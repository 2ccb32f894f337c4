package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mwskit/internal/attr"
	"mwskit/internal/codec"
)

// Record formats are built by hand from internal/codec's two primitives —
// big-endian fixed-width integers and 4-byte-length-prefixed byte strings —
// so they stay stable and auditable. Decoding returns an error on
// truncation, so corrupt records can never panic the store.

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

// encode renders m as a message payload: the record format, live and
// pinned by the sharded-4 golden. It carries no sequence number; the shard
// frame around it does (frameShardRecord).
func (m *Message) encode() []byte {
	var e codec.Encoder
	e.Str(m.DeviceID)
	e.Str(string(m.Attribute))
	e.Blob(m.Nonce[:])
	e.Blob(m.U)
	e.Blob(m.Ciphertext)
	e.Str(m.Scheme)
	e.Int64(m.Timestamp)
	e.Uint64(uint64(len(m.Tags)))
	for _, tg := range m.Tags {
		e.Blob(tg)
	}
	return e.Bytes()
}

// decodeMessage parses a message payload, stamping the caller-supplied
// sequence number. It is where the codec's truncation and trailing-bytes
// errors take the package's name.
func decodeMessage(seq uint64, payload []byte) (*Message, error) {
	m := &Message{Seq: seq}
	if err := m.decode(codec.NewDecoder(payload)); err != nil {
		return nil, fmt.Errorf("storage: bad record: %w", err)
	}
	return m, nil
}

func (m *Message) decode(d *codec.Decoder) (err error) {
	if m.DeviceID, err = d.Str(); err != nil {
		return err
	}
	var a string
	if a, err = d.Str(); err != nil {
		return err
	}
	m.Attribute = attr.Attribute(a)
	nb, err := d.Blob()
	if err != nil {
		return err
	}
	if m.Nonce, err = attr.NonceFromBytes(nb); err != nil {
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
	if m.Timestamp, err = d.Int64(); err != nil {
		return err
	}
	nTags, err := d.Uint64()
	if err != nil {
		return err
	}
	if nTags > 1<<16 {
		return errors.New("implausible tag count")
	}
	if nTags > 0 {
		m.Tags = make([][]byte, nTags)
		for i := range m.Tags {
			if m.Tags[i], err = d.Blob(); err != nil {
				return err
			}
		}
	}
	return d.Done()
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

func encodeKVPut(key string, value []byte) []byte {
	var e codec.Encoder
	e.Uint8(kvOpPut)
	e.Str(key)
	e.Blob(value)
	return e.Bytes()
}

func encodeKVDelete(key string) []byte {
	var e codec.Encoder
	e.Uint8(kvOpDelete)
	e.Str(key)
	return e.Bytes()
}
