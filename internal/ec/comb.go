package ec

import (
	"mwskit/internal/ff"
	"mwskit/internal/obsv"
)

// Comb is a fixed-base precomputation table: for a base point B of the
// order-q subgroup it stores every odd multiple each fixed window of the
// signed recoding (secret.go) can select, pre-shifted by the window's bit
// position —
//
//	tbl[i·2^(w−1) + j] = (2j+1)·2^(w·i)·B
//
// so evaluating k·B is one table selection per window and one group
// addition between them: no doublings at all, against w doublings plus
// one addition per window for the variable-base path. The schedule is
// scalar independent (same digit count, every digit non-zero), so Mul is
// safe for secret scalars and is the fast path for the hot fixed bases:
// the generator P (Encapsulate's U = rP, Setup's sP) via System.G1Comb.
//
// Build cost is ~n·(w+1) doublings + n·(2^(w−1)−1) additions and one
// inversion — two or three plain scalar multiplications — paid once per
// process per base. Entries are affine (Z = 1: the base is public), so Mul
// adds mixed. A Comb is immutable after NewComb and safe for concurrent use.
type Comb struct {
	c    *Curve
	base Point
	tbl  []jacPoint
}

const combRow = 1 << (secretWindow - 1) // table entries per window

// NewComb builds the table for one base point. The base must lie in the
// order-q subgroup, q > 15, for Mul's scalar normalization and window
// lemma to be sound (see ScalarMultSecret).
func (c *Curve) NewComb(base Point) *Comb {
	t := &Comb{c: c, base: base}
	if base.Inf {
		return t
	}
	n := c.sc.digits
	b := c.toJacobian(base)
	for i := 0; i < n; i++ {
		t.tbl = append(t.tbl, c.oddMultiples(b)...)
		for s := 0; s < secretWindow; s++ {
			b = c.jacDouble(b)
		}
	}
	// Montgomery's trick: zs[i] = Z_0·…·Z_(i−1), one inversion, one Z peeled
	// off per entry walking back. No entry is ∞ (q > 15), so no Z is zero.
	zs := make([]ff.Element, len(t.tbl)+1)
	zs[0] = c.F.One()
	for i, e := range t.tbl {
		zs[i+1] = zs[i].Mul(e.z)
	}
	inv := zs[len(t.tbl)].Inv()
	for i := len(t.tbl) - 1; i >= 0; i-- {
		e, zi := t.tbl[i], inv.Mul(zs[i])
		inv = inv.Mul(e.z)
		zi2 := zi.Square()
		t.tbl[i] = jacPoint{x: e.x.Mul(zi2), y: e.y.Mul(zi2).Mul(zi), z: zs[0]}
	}
	return t
}

// Base returns the point the table was built for.
func (t *Comb) Base() Point { return t.base }

// Mul returns k·base with a scalar-independent operation schedule:
// one table selection per digit of the recoding and one addition fewer, for
// every k. Suitable for secret scalars.
//
// Window lemma: before window m the accumulator is S·B, S = Σ_{i<m} d_i·16^i
// odd with |S| ≤ 16^m − 1 (digits are odd, |d_i| ≤ 15), and the addend is
// A·B, A = d_m·16^m an odd multiple of 16^m. So S, A, S + A and S − A are
// non-zero and below 16^(m+1) in magnitude; while 16^(m+1) ≤ q (m ≤ safe)
// none is a multiple of q, so for B of order q no operand is ∞ and they are
// neither equal nor opposite, for any scalar: mixed addition is exact there
// without exceptional cases. The top windows keep jacAddSecret; the choice
// reads the public window index only.
func (t *Comb) Mul(k Scalar) Point {
	obsv.AddScalarMultSecret()
	//mwslint:declassify the infinity flag of the precomputed base is public
	if t.base.Inf {
		return t.c.Infinity()
	}
	c := t.c
	digits, safe := c.RecodeSecretScalar(k), (c.Q.BitLen()-1)/secretWindow-1
	r := selectSigned(t.tbl[:combRow], digits[0])
	for i := 1; i < len(digits); i++ {
		e := selectSigned(t.tbl[i*combRow:][:combRow], digits[i])
		if i <= safe {
			r = jacAddAffine(r, e)
		} else {
			r = c.jacAddSecret(r, e)
		}
	}
	return c.fromJacobian(r)
}

// jacAddAffine returns j + k for k with Z = 1 by the 8M + 3S mixed
// formula: no doubling, no selects. Exact only for j ≠ ∞ and j ≠ ±k,
// which Comb.Mul's window lemma guarantees.
func jacAddAffine(j, k jacPoint) jacPoint {
	z1Sq := j.z.Square()
	h := k.x.Mul(z1Sq).Sub(j.x)
	r := k.y.Mul(z1Sq).Mul(j.z).Sub(j.y)
	hSq := h.Square()
	hCu := hSq.Mul(h)
	v := j.x.Mul(hSq)
	x3 := r.Square().Sub(hCu).Sub(v.Double())
	y3 := r.Mul(v.Sub(x3)).Sub(j.y.Mul(hCu))
	return jacPoint{x: x3, y: y3, z: j.z.Mul(h)}
}
