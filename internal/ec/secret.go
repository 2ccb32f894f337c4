package ec

import (
	"mwskit/internal/ff"
	"mwskit/internal/obsv"
)

// This file implements the constant-time scalar-multiplication path for
// secret scalars (the PKG master key s, per-message encapsulation
// randomness r, threshold shares f(i)). The plain ScalarMult in curve.go
// branches per bit of the scalar, so its group-operation sequence — and
// therefore its running time — is a function of the scalar's bit pattern;
// fine for public scalars (cofactor, group order, signature challenges),
// disqualifying for secrets.
//
// The approach is a fixed-window multiplication over a signed odd-digit
// recoding (Joye–Tunstall): a scalar normalized to an odd representative
// decomposes into a fixed number of digits, every digit odd and non-zero,
// so evaluation executes the same sequence of doublings and additions for
// every scalar of a given curve. Digit values select from a precomputed
// table of odd multiples by scanning the whole table under an arithmetic
// mask; the sign is applied by a masked select between y and −y. The
// ladder's additions use jacAddSecret, whose exceptional cases resolve by
// masked selects rather than branches.
//
// The guarantee is end-to-end down to the limb level: a Scalar is limbs
// from the bytes it was made from (scalar.go), recoding runs on those
// limbs, point arithmetic runs on internal/ff's fixed-limb Montgomery
// representation, and nothing branches or indexes on secret data; see
// DESIGN.md §14 for the constant-time contract of the field layer.
//
// The same recoding drives the fixed-base Comb in comb.go.

// secretWindow is the fixed window width in bits. Four is the sweet spot
// for the preset sizes: 8 precomputed points per (table, window) against
// one addition per 4 bits of scalar.
const secretWindow = 4

// selectSigned sets r = d·P for an odd digit d, where tbl[j] = (2j+1)·P.
// The table is scanned in full with a branch-free equality mask per
// entry, so neither the digit's magnitude nor its sign influences the
// memory access pattern or the instruction trace.
func selectSigned(r *jacPoint, tbl []jacPoint, d int64) {
	m := d >> 63 // all ones iff d < 0
	abs := uint64((d ^ m) - m)
	idx := (abs - 1) >> 1
	*r = tbl[0]
	for j := 1; j < len(tbl); j++ {
		x := uint64(j) ^ idx
		hit := 1 - ((x | -x) >> 63) // 1 iff j == idx
		selJac(r, hit, &tbl[j], r)
	}
	var neg ff.Element
	neg.SetNeg(&r.y)
	r.y.SetSelect(uint64(m)&1, &neg, &r.y)
}

// oddMultiples fills a table tbl[j] = (2j+1)·base of the 2^(w−1) odd
// multiples a fixed window of width w can select. The table is built with
// the branchy jacAdd: base points are public (hashed identities, the
// generator) even when the scalar is secret.
func (c *Curve) oddMultiples(tbl []jacPoint, base *jacPoint) {
	var twice jacPoint
	jacDouble(&twice, base)
	tbl[0] = *base
	for j := 1; j < len(tbl); j++ {
		c.jacAdd(&tbl[j], &tbl[j-1], &twice)
	}
}

// ScalarMultSecret returns k·p for a point p of the order-q subgroup,
// with an instruction trace and memory access pattern independent of k:
// the same count of doublings, masked additions, and full-table scans for
// every k. Use it whenever the scalar is secret (master keys,
// encapsulation randomness, threshold shares); for public scalars
// ScalarMult is faster. p must lie in the order-q subgroup (everywhere a
// secret scalar arises in this codebase the base point does); for points
// outside it the result is (k + {q,2q})·p, which is not k·p.
func (c *Curve) ScalarMultSecret(p Point, k Scalar) Point {
	obsv.AddScalarMultSecret()
	//mwslint:declassify the infinity guard branches on the base point, which is public (hashed identities, the generator) even when the scalar is secret
	if p.Inf {
		return c.Infinity()
	}
	digits := c.RecodeSecretScalar(k)
	var tbl [combRow]jacPoint
	base := c.toJacobian(p)
	c.oddMultiples(tbl[:], &base)
	var r, e jacPoint
	selectSigned(&r, tbl[:], digits[len(digits)-1])
	for i := len(digits) - 2; i >= 0; i-- {
		for s := 0; s < secretWindow; s++ {
			jacDouble(&r, &r)
		}
		selectSigned(&e, tbl[:], digits[i])
		jacAddSecret(&r, &r, &e)
	}
	return c.fromJacobian(&r)
}
