package ec

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// Scalar is an integer mod q, the one form a secret scalar takes from
// the bytes it is drawn, hashed or decoded from down to the ladder: the
// PKG master key s, encapsulation randomness r, threshold shares. It is
// a fixed-size little-endian limb array holding a value below the q of
// the curve that made it (RandomScalar, ScalarFromWide, ScalarFromBytes,
// ScalarAdd), and everything done to one runs a schedule fixed by q's
// public size: a scalar never passes through math/big, whose limb
// normalization leaks value-dependent timing. The zero value is the
// scalar 0 on every curve. The helpers below mirror the ones inside
// internal/ff rather than importing them: scalars live mod q while ff
// elements live mod p, and separate types prevent cross-use.
type Scalar struct{ l scLimbs }

// IsZero reports whether k is the scalar 0.
func (k Scalar) IsZero() bool {
	var acc uint64
	for _, w := range k.l {
		acc |= w
	}
	return acc == 0
}

// scMaxLimbs bounds the normalized scalar 3q: q divides p+1 with p at
// most 1024 bits, so 3q needs at most 1026 bits = 17 limbs.
const scMaxLimbs = 17

type scLimbs [scMaxLimbs]uint64

// scAdd sets z = x + y over n limbs, returning the carry.
func scAdd(z, x, y *scLimbs, n int) uint64 {
	var c uint64
	for i := 0; i < n; i++ {
		z[i], c = bits.Add64(x[i], y[i], c)
	}
	return c
}

// scSub sets z = x − y over n limbs, returning the borrow.
func scSub(z, x, y *scLimbs, n int) uint64 {
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	return b
}

// scSel sets z = a when bit == 1 and z = b when bit == 0, branch-free.
func scSel(z *scLimbs, bit uint64, a, b *scLimbs, n int) {
	m := -(bit & 1)
	for i := 0; i < n; i++ {
		z[i] = b[i] ^ (m & (a[i] ^ b[i]))
	}
}

// scAddSmall adds v in place; callers guarantee headroom for the carry.
func scAddSmall(x *scLimbs, v uint64, n int) {
	var c uint64
	x[0], c = bits.Add64(x[0], v, 0)
	for i := 1; i < n; i++ {
		x[i], c = bits.Add64(x[i], 0, c)
	}
}

// scShr4 shifts right by the window width (4 bits) in place.
func scShr4(x *scLimbs, n int) {
	for i := 0; i < n-1; i++ {
		x[i] = x[i]>>4 | x[i+1]<<60
	}
	x[n-1] >>= 4
}

// limbsFromBytes reads a big-endian value of at most 8·scMaxLimbs bytes.
func limbsFromBytes(b []byte) (l scLimbs) {
	for i := range b {
		l[i/8] |= uint64(b[len(b)-1-i]) << (8 * (i % 8))
	}
	return l
}

// scalarCtx caches the limb images of q, 2q and q−1 plus the fixed
// encoding, sampling and recoding geometry for a curve. Built once in
// NewCurve; immutable afterwards.
type scalarCtx struct {
	n          int // limbs covering 3q + recoding headroom
	digits     int // signed digits of the recoding: windows covering 3q plus the final carry digit
	randLen    int // bytes RandomScalar draws per candidate
	randMask   byte
	q, q2, qm1 scLimbs
}

func newScalarCtx(q *big.Int) *scalarCtx {
	// A candidate is drawn as rand.Int(r, q−1) draws it: as many bytes as
	// q−2 has, the excess top bits masked off.
	randBits := new(big.Int).Sub(q, big.NewInt(2)).BitLen()
	ctx := &scalarCtx{
		n:        (q.BitLen() + 2 + 63) / 64,
		digits:   (q.BitLen()+2+secretWindow-1)/secretWindow + 1,
		randLen:  (randBits + 7) / 8,
		randMask: byte(int(1)<<((randBits+7)%8+1) - 1),
		q:        limbsFromBytes(q.Bytes()),
	}
	scAdd(&ctx.q2, &ctx.q, &ctx.q, ctx.n)
	ctx.qm1 = ctx.q
	ctx.qm1[0]-- // q is odd
	return ctx
}

// ScalarLen returns the width in bytes of a scalar encoding.
func (c *Curve) ScalarLen() int { return (c.Q.BitLen() + 7) / 8 }

// ScalarFromBytes decodes a big-endian scalar of exactly ScalarLen()
// bytes, refusing values not below q. The comparison is one borrow chain
// over the fixed width.
func (c *Curve) ScalarFromBytes(b []byte) (Scalar, error) {
	if len(b) != c.ScalarLen() {
		return Scalar{}, fmt.Errorf("ec: scalar encoding of %d bytes, want %d", len(b), c.ScalarLen())
	}
	k := Scalar{limbsFromBytes(b)}
	var d scLimbs
	//mwslint:declassify whether an encoding is in range is the decoder's answer, public by being returned; a stored scalar was written below q, so the outcome is fixed for it
	if scSub(&d, &k.l, &c.sc.q, c.sc.n) == 0 {
		return Scalar{}, errors.New("ec: scalar not below the group order")
	}
	return k, nil
}

// ScalarBytes encodes k big-endian in ScalarLen() bytes.
func (c *Curve) ScalarBytes(k Scalar) []byte {
	b := make([]byte, c.ScalarLen())
	for i := range b {
		b[len(b)-1-i] = byte(k.l[i/8] >> (8 * (i % 8)))
	}
	return b
}

// ScalarAdd returns (a + b) mod q: the sum and the conditional −q
// correction run on limbs. Signature responses like r + h in internal/ibs,
// where the sum multiplies secret key material, are formed here.
func (c *Curve) ScalarAdd(a, b Scalar) Scalar {
	var s, d scLimbs
	scAdd(&s, &a.l, &b.l, c.sc.n)
	bw := scSub(&d, &s, &c.sc.q, c.sc.n)
	scSel(&s, bw^1, &d, &s, c.sc.n)
	return Scalar{s}
}

// ScalarFromWide reduces a big-endian value of any length into [1, q−1]
// as (v mod (q−1)) + 1, the hash-to-scalar map of H3 and the IBS
// challenge; callers pass 64 bits beyond q's size for uniformity. One
// shift-in and one masked −(q−1) per bit of v, whatever its value.
func (c *Curve) ScalarFromWide(v []byte) Scalar {
	ctx := c.sc
	var r, d scLimbs
	for _, by := range v {
		for bit := 7; bit >= 0; bit-- {
			scAdd(&r, &r, &r, ctx.n)
			r[0] |= uint64(by>>bit) & 1
			bw := scSub(&d, &r, &ctx.qm1, ctx.n)
			scSel(&r, bw^1, &d, &r, ctx.n)
		}
	}
	scAddSmall(&r, 1, ctx.n)
	return Scalar{r}
}

// RandomScalar draws a uniform scalar in [1, q−1] by rejection: a masked
// candidate v is kept when v + 1 < q. It consumes r exactly as
// rand.Int(r, q−1) does — the bfibe and peks goldens pin values drawn
// from a fixed stream. A rejected candidate is discarded whole, so the
// retry reveals nothing about the one returned.
func (c *Curve) RandomScalar(r io.Reader) (Scalar, error) {
	ctx := c.sc
	buf := make([]byte, ctx.randLen)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return Scalar{}, err
		}
		buf[0] &= ctx.randMask
		k := Scalar{limbsFromBytes(buf)}
		scAddSmall(&k.l, 1, ctx.n)
		var d scLimbs
		if scSub(&d, &k.l, &ctx.q, ctx.n) == 1 {
			return k, nil
		}
	}
}

// RecodeSecretScalar normalizes k ∈ [0, q) to the odd representative
// kn = k + q·2^(k mod 2) ∈ (0, 3q] and decomposes it into exactly
// ctx.digits signed odd digits with kn = Σ d[i]·2^(4i), |d[i]| ≤ 2⁴−1.
// Every step is branch-free: the digit is the low five bits minus 16, and
// the update kn ← (kn − d)/2⁴ is a mask-clear, a +16, and a shift — no
// signed arithmetic, no data-dependent branch. The fixed digit count and
// the all-odd guarantee are what make the ladder schedule
// scalar-independent. It is exported for sibling packages that run their
// own constant-schedule exponentiations in groups of order q
// (pairing.GTExpSecret exponentiates in μ_q ⊂ F_p²*); the digits are
// derived from the secret and must be consumed only by constant-time
// evaluators. The digits are written into d and returned as d's prefix,
// so a caller that keeps d on its stack recodes without allocating.
func (c *Curve) RecodeSecretScalar(k Scalar, d *SecretDigits) []int64 {
	ctx, kk := c.sc, k.l
	var addq scLimbs
	scSel(&addq, kk[0]&1, &ctx.q2, &ctx.q, ctx.n)
	scAdd(&kk, &kk, &addq, ctx.n)
	for i := 0; i < ctx.digits-1; i++ {
		d[i] = int64(kk[0]&31) - 16
		kk[0] &^= 31
		scAddSmall(&kk, 16, ctx.n)
		scShr4(&kk, ctx.n)
	}
	d[ctx.digits-1] = int64(kk[0])
	return d[:ctx.digits]
}

// SecretDigits has room for the recoding of any scalar a Curve holds
// (at most scMaxLimbs limbs, one digit per window plus the carry).
type SecretDigits [scMaxLimbs*64/secretWindow + 1]int64
