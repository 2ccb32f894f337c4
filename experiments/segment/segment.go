// Package segment implements the paper's §VIII message-segmentation
// extension: "divide a message into segments, where each segment has a
// different attribute assigned … total consumption in a day, error
// notifications and events … each part may be important to different
// service providers, and a case may arise where sharing of this
// information would break confidentiality."
//
// A segmented deposit encrypts each part toward its own attribute, so
// the meter operator can read the error segment while the retailer reads
// only consumption — even though they originated in one device message.
// Segments carry a group ID and index/total header so a client holding
// several attributes can correlate and reassemble the parts it is
// entitled to; parts it is not entitled to simply never reach it.
//
// Extension X3 lives under experiments/ (DESIGN.md §2): no daemon, client,
// example or bench/ workload ever called it or its client-side assembler.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"mwskit/internal/attr"
	"mwskit/internal/device"
	"mwskit/internal/wire"
)

// GroupIDLen is the byte length of a segment-group correlation ID.
const GroupIDLen = 16

// GroupID correlates the segments of one original message.
type GroupID [GroupIDLen]byte

// NewGroupID draws a random group ID.
func NewGroupID(rng io.Reader) (GroupID, error) {
	var g GroupID
	if _, err := io.ReadFull(rng, g[:]); err != nil {
		return GroupID{}, fmt.Errorf("segment: group id: %w", err)
	}
	return g, nil
}

// Part is one segment before wrapping: its routing attribute and body.
type Part struct {
	Attribute attr.Attribute
	Body      []byte
}

// DepositSegments splits one logical device message into parts, each
// encrypted toward its own attribute, and deposits them through d as a
// correlated segment group. It returns the group ID and the per-part
// sequence numbers.
//
// Confidentiality property: a receiving client granted only some of the
// part attributes receives — and can decrypt — only those parts.
func DepositSegments(d *device.Device, mws *wire.Client, parts []Part) (GroupID, []uint64, error) {
	if len(parts) == 0 || len(parts) > 255 {
		return GroupID{}, nil, fmt.Errorf("segment: %d segments, want 1 to 255", len(parts))
	}
	group, err := NewGroupID(attr.RandReader)
	if err != nil {
		return GroupID{}, nil, err
	}
	seqs := make([]uint64, len(parts))
	total := uint8(len(parts))
	for i, part := range parts {
		wrapped, err := Wrap(group, uint8(i), total, part.Body)
		if err != nil {
			return GroupID{}, nil, err
		}
		seq, err := d.Deposit(mws, part.Attribute, wrapped)
		if err != nil {
			return GroupID{}, nil, fmt.Errorf("segment: part %d: %w", i, err)
		}
		seqs[i] = seq
	}
	return group, seqs, nil
}

// Envelope is the decoded header + body of a wrapped segment payload.
type Envelope struct {
	Group GroupID
	Index uint8 // 0-based position within the group
	Total uint8 // number of segments in the group
	Body  []byte
}

// magic distinguishes segment payloads from ordinary message bodies.
var magic = [4]byte{'S', 'E', 'G', '1'}

// Wrap encodes a segment body with its group header. The result is what
// gets encrypted and deposited as the message payload.
func Wrap(group GroupID, index, total uint8, body []byte) ([]byte, error) {
	if total == 0 || index >= total {
		return nil, fmt.Errorf("segment: invalid index %d of %d", index, total)
	}
	out := make([]byte, 0, 4+GroupIDLen+2+4+len(body))
	out = append(out, magic[:]...)
	out = append(out, group[:]...)
	out = append(out, index, total)
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(body)))
	out = append(out, l[:]...)
	return append(out, body...), nil
}

// Unwrap decodes a payload produced by Wrap. ok is false when the payload
// is not a segment (ordinary messages pass through unharmed).
func Unwrap(payload []byte) (*Envelope, bool) {
	const hdr = 4 + GroupIDLen + 2 + 4
	if len(payload) < hdr || [4]byte(payload[:4]) != magic {
		return nil, false
	}
	var e Envelope
	copy(e.Group[:], payload[4:4+GroupIDLen])
	e.Index = payload[4+GroupIDLen]
	e.Total = payload[4+GroupIDLen+1]
	n := binary.BigEndian.Uint32(payload[4+GroupIDLen+2 : hdr])
	if e.Total == 0 || e.Index >= e.Total || uint32(len(payload)-hdr) != n {
		return nil, false
	}
	e.Body = make([]byte, n)
	copy(e.Body, payload[hdr:])
	return &e, true
}

// Assembled is the reassembly state of one segment group as seen by one
// client: which indices arrived and their bodies. Complete is true only
// when every index of the group is present — a client granted a subset of
// the attributes legitimately ends up with a partial view.
type Assembled struct {
	Group    GroupID
	Total    uint8
	Segments map[uint8][]byte // index → body
}

// Complete reports whether every segment of the group arrived.
func (a *Assembled) Complete() bool { return int(a.Total) == len(a.Segments) }

// Join concatenates the present segments in index order (partial views
// join what they have).
func (a *Assembled) Join() []byte {
	idx := make([]int, 0, len(a.Segments))
	for i := range a.Segments {
		idx = append(idx, int(i))
	}
	sort.Ints(idx)
	var out []byte
	for _, i := range idx {
		out = append(out, a.Segments[uint8(i)]...)
	}
	return out
}

// Assembler accumulates segment envelopes into groups.
type Assembler struct {
	groups map[GroupID]*Assembled
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{groups: make(map[GroupID]*Assembled)}
}

// Add records one envelope. Conflicting metadata (total mismatch within a
// group, duplicate index with different body) is rejected.
func (as *Assembler) Add(e *Envelope) error {
	if e == nil {
		return errors.New("segment: nil envelope")
	}
	g, ok := as.groups[e.Group]
	if !ok {
		g = &Assembled{Group: e.Group, Total: e.Total, Segments: make(map[uint8][]byte)}
		as.groups[e.Group] = g
	}
	if g.Total != e.Total {
		return fmt.Errorf("segment: total mismatch in group (%d vs %d)", g.Total, e.Total)
	}
	if prev, dup := g.Segments[e.Index]; dup {
		if string(prev) != string(e.Body) {
			return fmt.Errorf("segment: conflicting duplicate for index %d", e.Index)
		}
		return nil
	}
	g.Segments[e.Index] = e.Body
	return nil
}

// Groups returns the accumulated groups (partial and complete).
func (as *Assembler) Groups() []*Assembled {
	out := make([]*Assembled, 0, len(as.groups))
	for _, g := range as.groups {
		out = append(out, g)
	}
	return out
}
