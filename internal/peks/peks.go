// Package peks implements Public-key Encryption with Keyword Search
// (Boneh, Di Crescenzo, Ostrovsky, Persiano — EUROCRYPT 2004) over the
// same Boneh–Franklin key hierarchy as internal/bfibe. It realizes the
// capability behind the paper's related work [1] (Waters et al.,
// "Building an Encrypted and Searchable Audit Log"): a depositing client
// attaches encrypted keyword tags to a message; the warehouse — which
// cannot read the keywords — can still filter messages for a retrieving
// client that presents a PKG-issued *trapdoor* for a specific keyword.
//
// Construction (using system parameters P, P_pub = sP):
//
//	Tag(W):       r ← Z_q*, t = ê(H1(W), P_pub)^r, output (U = rP, c = H(t))
//	Trapdoor(W):  T_W = s·H1(W)                      (PKG-side, same as Extract)
//	Test:         H(ê(T_W, U)) == c                  (Tester: T_W's lines built once)
//
// Correctness: ê(T_W, rP) = ê(s·Q_W, rP) = ê(Q_W, sP)^r = t.
// The warehouse learns only *which* tags match a trapdoor it was handed,
// never the keyword itself or the content of non-matching tags.
package peks

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"io"

	"mwskit/internal/bfibe"
	"mwskit/internal/ec"
	"mwskit/internal/kdf"
	"mwskit/internal/pairing"
)

// keywordNamespace prefixes keyword identities so trapdoors can never
// collide with message-encryption identities (which are attribute
// digests) or device-signing identities.
const keywordNamespace = "mwskit/peks/kw/v1:"

// tagHashLen is the length of the tag check value c = H(t).
const tagHashLen = 32

// KeywordIdentity maps a keyword onto its identity bytes.
func KeywordIdentity(keyword string) []byte {
	return []byte(keywordNamespace + keyword)
}

// Tag is one searchable encrypted keyword: (U, C) with U = rP and
// C = H(ê(Q_W, P_pub)^r).
type Tag struct {
	U ec.Point
	C []byte
}

// NewTag encrypts a keyword into a searchable tag under the public
// parameters. The depositing client calls this once per keyword per
// message.
func NewTag(p *bfibe.Params, keyword string, rng io.Reader) (*Tag, error) {
	if keyword == "" {
		return nil, errors.New("peks: empty keyword")
	}
	g, err := p.PairIdentity(KeywordIdentity(keyword))
	if err != nil {
		return nil, err
	}
	r, err := p.Sys.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	// r is secret (it binds the tag to the keyword), and U = rP is a
	// fixed-base multiplication — the shared comb gives both the
	// constant schedule and the speedup; the target-group power of r
	// likewise takes the constant-time path.
	u := p.Sys.G1Comb().Mul(r)
	t := p.Sys.GTExpSecret(g, r)
	return &Tag{U: u, C: kdf.Stream("mwskit/peks/h/v1", t.Bytes(), tagHashLen)}, nil
}

// Trapdoor is the search capability for one keyword: T_W = s·Q_W. Only
// the PKG (holder of s) can mint one; possession lets the holder test
// tags for exactly that keyword and nothing else.
type Trapdoor struct {
	T ec.Point
}

// NewTrapdoor extracts the trapdoor for a keyword. PKG-side operation.
func NewTrapdoor(p *bfibe.Params, master *bfibe.MasterKey, keyword string) (*Trapdoor, error) {
	if keyword == "" {
		return nil, errors.New("peks: empty keyword")
	}
	sk, err := master.Extract(p, KeywordIdentity(keyword))
	if err != nil {
		return nil, err
	}
	return &Trapdoor{T: sk.D}, nil
}

// Tester tests tags against one trapdoor. A search meets many stored tags
// with the same trapdoor, and everything in ê(T_W, ·) that depends only on
// T_W — the trapdoor's validation and its Miller-loop lines — is done once
// here, so each Test pays the F_p² accumulation and the final
// exponentiation only. Immutable and safe for concurrent use.
type Tester struct {
	p   *bfibe.Params
	pre *pairing.G1Precomp
}

// NewTester validates the trapdoor and precomputes its pairing lines. The
// warehouse builds one per search.
func NewTester(p *bfibe.Params, td *Trapdoor) (*Tester, error) {
	if td == nil || !p.Sys.Curve.IsOnCurve(td.T) {
		return nil, errors.New("peks: trapdoor point off curve")
	}
	return &Tester{p: p, pre: p.Sys.G1Precomp(td.T)}, nil
}

// Test reports whether the tag encrypts the tester's keyword;
// constant-time on the check value.
func (t *Tester) Test(tag *Tag) bool {
	if tag == nil || len(tag.C) != tagHashLen || !t.p.Sys.Curve.IsOnCurve(tag.U) {
		return false
	}
	want := kdf.Stream("mwskit/peks/h/v1", t.pre.Pair(tag.U).Bytes(), tagHashLen)
	return subtle.ConstantTimeCompare(want, tag.C) == 1
}

// Test reports whether the tag encrypts the trapdoor's keyword: the
// one-shot form of Tester, for a single tag.
func Test(p *bfibe.Params, tag *Tag, td *Trapdoor) bool {
	t, err := NewTester(p, td)
	return err == nil && t.Test(tag)
}

// MarshalTag encodes a tag as point ‖ check value.
func MarshalTag(p *bfibe.Params, tag *Tag) []byte {
	u := p.Sys.Curve.Bytes(tag.U)
	out := make([]byte, 0, 4+len(u)+len(tag.C))
	out = append(out, byte(len(u)>>24), byte(len(u)>>16), byte(len(u)>>8), byte(len(u)))
	out = append(out, u...)
	return append(out, tag.C...)
}

// UnmarshalTag decodes a tag, validating the point.
func UnmarshalTag(p *bfibe.Params, b []byte) (*Tag, error) {
	if len(b) < 4 {
		return nil, errors.New("peks: truncated tag")
	}
	n := int(b[0])<<24 | int(b[1])<<16 | int(b[2])<<8 | int(b[3])
	if n < 0 || len(b)-4 < n {
		return nil, errors.New("peks: truncated tag point")
	}
	u, err := p.Sys.Curve.SubgroupPointFromBytes(b[4 : 4+n])
	if err != nil {
		return nil, fmt.Errorf("peks: tag point: %w", err)
	}
	c := make([]byte, len(b)-4-n)
	copy(c, b[4+n:])
	if len(c) != tagHashLen {
		return nil, errors.New("peks: bad check length")
	}
	return &Tag{U: u, C: c}, nil
}

// MarshalTrapdoor encodes a trapdoor point.
func MarshalTrapdoor(p *bfibe.Params, td *Trapdoor) []byte {
	return p.Sys.Curve.Bytes(td.T)
}

// UnmarshalTrapdoor decodes and validates a trapdoor.
func UnmarshalTrapdoor(p *bfibe.Params, b []byte) (*Trapdoor, error) {
	t, err := p.Sys.Curve.SubgroupPointFromBytes(b)
	if err != nil {
		return nil, fmt.Errorf("peks: trapdoor: %w", err)
	}
	return &Trapdoor{T: t}, nil
}
