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
	t.tbl = make([]jacPoint, n*combRow)
	b := c.toJacobian(base)
	for i := 0; i < n; i++ {
		c.oddMultiples(t.tbl[i*combRow:][:combRow], &b)
		for s := 0; s < secretWindow; s++ {
			jacDouble(&b, &b)
		}
	}
	// Montgomery's trick: zs[i] = Z_0·…·Z_(i−1), one inversion, one Z peeled
	// off per entry walking back. No entry is ∞ (q > 15), so no Z is zero.
	zs := make([]ff.Element, len(t.tbl)+1)
	zs[0] = c.F.One()
	for i := range t.tbl {
		zs[i+1].SetMul(&zs[i], &t.tbl[i].z)
	}
	inv := zs[len(t.tbl)].Inv()
	for i := len(t.tbl) - 1; i >= 0; i-- {
		var zi, zi2 ff.Element
		e := &t.tbl[i]
		zi.SetMul(&inv, &zs[i])
		inv.SetMul(&inv, &e.z)
		zi2.SetSquare(&zi)
		e.x.SetMul(&e.x, &zi2)
		e.y.SetMul(&e.y, &zi2)
		e.y.SetMul(&e.y, &zi)
		e.z = zs[0]
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
	var r, e jacPoint
	selectSigned(&r, t.tbl[:combRow], digits[0])
	for i := 1; i < len(digits); i++ {
		selectSigned(&e, t.tbl[i*combRow:][:combRow], digits[i])
		if i <= safe {
			jacAddAffine(&r, &r, &e)
		} else {
			jacAddSecret(&r, &r, &e)
		}
	}
	return c.fromJacobian(&r)
}

// jacAddAffine sets r = j + k for k with Z = 1 by the 8M + 3S mixed
// formula: no doubling, no selects. Exact only for j ≠ ∞ and j ≠ ±k,
// which Comb.Mul's window lemma guarantees.
func jacAddAffine(r, j, k *jacPoint) {
	var t, h, rr, hCu, v ff.Element
	t.SetSquare(&j.z)
	h.SetMul(&k.x, &t)
	h.SetSub(&h, &j.x) // H = x2·Z1² − X1
	rr.SetMul(&k.y, &t)
	rr.SetMul(&rr, &j.z)
	rr.SetSub(&rr, &j.y) // R = y2·Z1³ − Y1
	r.z.SetMul(&j.z, &h)
	t.SetSquare(&h)
	hCu.SetMul(&t, &h)
	v.SetMul(&j.x, &t)   // V = X1·H²
	t.SetMul(&j.y, &hCu) // Y1·H³
	r.x.SetSquare(&rr)
	r.x.SetSub(&r.x, &hCu)
	hCu.SetDouble(&v)
	r.x.SetSub(&r.x, &hCu) // X3 = R² − H³ − 2V
	v.SetSub(&v, &r.x)
	r.y.SetMul(&rr, &v)
	r.y.SetSub(&r.y, &t) // Y3 = R·(V − X3) − Y1·H³
}
