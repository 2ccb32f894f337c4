package ec

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"io"
	"math/big"
)

// maxHashAttempts bounds the try-and-increment loop in HashToPoint. Each
// attempt succeeds with probability ≈ 1/2, so 256 failures indicate a
// broken hash or parameters rather than bad luck (probability 2⁻²⁵⁶).
const maxHashAttempts = 256

// HashToCurvePoint maps an arbitrary byte string onto a point of E(F_p)
// by try-and-increment: x-candidates are derived from SHA-256(domain ‖
// counter ‖ msg) expanded to the field width, and the first candidate
// where x³ + x is a quadratic residue yields the point (with the root of
// even parity chosen so the map is deterministic). The result is NOT yet
// in the order-q subgroup; see HashToSubgroup. A candidate's residuosity
// is tested by the Jacobi symbol before any square root is taken, so an
// attempt that fails skips the root that dominates one that succeeds.
// The symbol, like the attempt count, is variable-time in the candidate,
// which is hashed from public bytes.
func (c *Curve) HashToCurvePoint(domain string, msg []byte) (Point, error) {
	byteLen := c.F.ByteLen()
	h := sha256.New()
	xBytes := make([]byte, 0, byteLen+sha256.Size)
	for ctr := uint32(0); ctr < maxHashAttempts; ctr++ {
		xBytes = expand(h, xBytes[:0], domain, ctr, msg, byteLen)
		x := c.F.NewElement(new(big.Int).SetBytes(xBytes))
		rhs := x.Square().Mul(x).Add(x) // x³ + x
		// Half of all candidates are not abscissas: a decided non-square
		// skips the root, and Sqrt's own check settles everything else.
		if rhs.Jacobi() < 0 {
			continue
		}
		y, ok := rhs.Sqrt()
		if !ok {
			continue
		}
		// Normalize the root so hashing is deterministic across
		// square-root implementations: pick the root whose canonical
		// representative is even.
		if yb := y.Bytes(); yb[len(yb)-1]&1 == 1 {
			y = y.Neg()
		}
		return Point{X: x, Y: y}, nil
	}
	return Point{}, errors.New("ec: hash-to-curve failed to find a residue")
}

// HashToSubgroup maps a byte string into the order-q pairing subgroup G1
// by hashing to the curve and clearing the cofactor. If cofactor clearing
// lands on the identity (possible only for pathological inputs), the
// counter space is re-entered with a tweaked domain.
func (c *Curve) HashToSubgroup(domain string, msg []byte) (Point, error) {
	d := domain
	for i := 0; i < 4; i++ {
		p, err := c.HashToCurvePoint(d, msg)
		if err != nil {
			return Point{}, err
		}
		g := c.ClearCofactor(p)
		if !g.Inf {
			return g, nil
		}
		d += "#retry"
	}
	return Point{}, errors.New("ec: hash-to-subgroup produced the identity")
}

// expand appends to out the byteLen bytes derived from (domain, ctr, msg)
// by chaining SHA-256 blocks on the caller's hasher, a simple
// fixed-output-length XOF substitute.
func expand(h hash.Hash, out []byte, domain string, ctr uint32, msg []byte, byteLen int) []byte {
	var hdr [8]byte // counter ‖ block index
	binary.BigEndian.PutUint32(hdr[:4], ctr)
	for block := uint32(0); len(out) < byteLen; block++ {
		binary.BigEndian.PutUint32(hdr[4:], block)
		h.Reset()
		io.WriteString(h, domain)
		h.Write(hdr[:])
		h.Write(msg)
		out = h.Sum(out)
	}
	return out[:byteLen]
}
