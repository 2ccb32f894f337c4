package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mwskit/internal/attr"
)

// Record formats are built by hand (no reflection) from two primitives,
// so they stay stable and auditable: big-endian fixed-width integers and
// 4-byte-length-prefixed byte strings.

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// dec reads records back. Every method returns an error on truncation so
// corrupt records can never panic the store.
type dec struct {
	buf []byte
}

var errTruncated = errors.New("storage: truncated record")

func (d *dec) uint8() (uint8, error) {
	if len(d.buf) < 1 {
		return 0, errTruncated
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v, nil
}

func (d *dec) uint64() (uint64, error) {
	if len(d.buf) < 8 {
		return 0, errTruncated
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, nil
}

func (d *dec) bytes() ([]byte, error) {
	if len(d.buf) < 4 {
		return nil, errTruncated
	}
	n := binary.BigEndian.Uint32(d.buf)
	if uint32(len(d.buf)-4) < n {
		return nil, errTruncated
	}
	out := make([]byte, n)
	copy(out, d.buf[4:4+n])
	d.buf = d.buf[4+n:]
	return out, nil
}

func (d *dec) str() (string, error) {
	b, err := d.bytes()
	return string(b), err
}

func (d *dec) done() error {
	if len(d.buf) != 0 {
		return fmt.Errorf("storage: %d trailing bytes in record", len(d.buf))
	}
	return nil
}

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

// encode renders m as a message payload — the v1 record format, which
// carried no sequence number because the v1 WAL position was the seq.
func (m *Message) encode() []byte {
	b := appendString(nil, m.DeviceID)
	b = appendString(b, string(m.Attribute))
	b = appendBytes(b, m.Nonce[:])
	b = appendBytes(b, m.U)
	b = appendBytes(b, m.Ciphertext)
	b = appendString(b, m.Scheme)
	b = binary.BigEndian.AppendUint64(b, uint64(m.Timestamp))
	b = binary.BigEndian.AppendUint64(b, uint64(len(m.Tags)))
	for _, tg := range m.Tags {
		b = appendBytes(b, tg)
	}
	return b
}

// decodeMessage parses a message payload, stamping the caller-supplied
// sequence number.
func decodeMessage(seq uint64, payload []byte) (*Message, error) {
	d := dec{buf: payload}
	m := &Message{Seq: seq}
	var err error
	if m.DeviceID, err = d.str(); err != nil {
		return nil, err
	}
	var a string
	if a, err = d.str(); err != nil {
		return nil, err
	}
	m.Attribute = attr.Attribute(a)
	nb, err := d.bytes()
	if err != nil {
		return nil, err
	}
	if m.Nonce, err = attr.NonceFromBytes(nb); err != nil {
		return nil, err
	}
	if m.U, err = d.bytes(); err != nil {
		return nil, err
	}
	if m.Ciphertext, err = d.bytes(); err != nil {
		return nil, err
	}
	if m.Scheme, err = d.str(); err != nil {
		return nil, err
	}
	ts, err := d.uint64()
	if err != nil {
		return nil, err
	}
	m.Timestamp = int64(ts)
	nTags, err := d.uint64()
	if err != nil {
		return nil, err
	}
	if nTags > 1<<16 {
		return nil, errors.New("storage: implausible tag count")
	}
	if nTags > 0 {
		m.Tags = make([][]byte, nTags)
		for i := range m.Tags {
			if m.Tags[i], err = d.bytes(); err != nil {
				return nil, err
			}
		}
	}
	return m, d.done()
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
	return appendBytes(appendString([]byte{kvOpPut}, key), value)
}

func encodeKVDelete(key string) []byte {
	return appendString([]byte{kvOpDelete}, key)
}
