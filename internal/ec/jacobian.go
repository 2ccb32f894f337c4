package ec

import "mwskit/internal/ff"

// Jacobian coordinates (X, Y, Z) represent the affine point (X/Z², Y/Z³);
// Z = 0 is the point at infinity. Using them inside scalar multiplication
// replaces the per-step field inversion of affine addition with a single
// inversion at the end, which dominates the cost profile of the Miller
// loop's supporting scalar arithmetic.
//
// The doubling formula is specialized for the curve coefficient a = 1
// (E: y² = x³ + x): M = 3X² + Z⁴.
//
// Every kernel writes its result through a destination pointer, one field
// operation per statement on ff's in-place API, and the destination may be
// one of the operands (r = 2r, r = r + k are how the ladders call them): a
// coordinate of r is stored only after the last read of the operand
// coordinates it could overwrite. Returning a jacPoint would copy 408
// bytes per step to carry 192 on bf80 (DESIGN.md §14).
//
// Two addition flavors coexist. jacAdd branches on the exceptional cases
// (either operand at infinity, operands equal or opposite) and is used on
// public-scalar paths where those branches leak nothing. jacAddSecret
// computes the general sum AND the doubling unconditionally and resolves
// the exceptional cases with masked selects, so the secret ladder's
// instruction trace is input-independent.

type jacPoint struct {
	x, y, z ff.Element
}

func (c *Curve) jacInfinity() jacPoint {
	return jacPoint{x: c.F.One(), y: c.F.One(), z: c.F.Zero()}
}

func (j *jacPoint) isInf() bool { return j.z.IsZeroBit() == 1 }

func (c *Curve) toJacobian(p Point) jacPoint {
	//mwslint:declassify infinity flag of an input point is public structure, not key material
	if p.Inf {
		return c.jacInfinity()
	}
	return jacPoint{x: p.X, y: p.Y, z: c.F.One()}
}

func (c *Curve) fromJacobian(j *jacPoint) Point {
	//mwslint:declassify whether a scalar-multiplication result is the identity is public: it is visible in the returned Point either way
	if j.isInf() {
		return c.Infinity()
	}
	var p Point
	zi := j.z.Inv()
	p.X.SetSquare(&zi)
	p.Y.SetMul(&j.y, &p.X)
	p.Y.SetMul(&p.Y, &zi)
	p.X.SetMul(&j.x, &p.X)
	return p
}

// jacDouble sets r = 2j with the a = 1 doubling formula. The formula is
// exception-free: for j at infinity (Z = 0) or with Y = 0 (no such
// affine point exists on y² = x³ + x over our fields, but intermediate
// masked candidates can carry it) the output Z' = 2YZ is zero, i.e. the
// correct point at infinity, so no guard is needed and none is taken.
func jacDouble(r, j *jacPoint) {
	var ySq, s, m, t ff.Element
	ySq.SetSquare(&j.y)
	s.SetMul(&j.x, &ySq)
	s.SetDouble(&s)
	s.SetDouble(&s) // S = 4·X·Y²
	m.SetSquare(&j.x)
	t.SetDouble(&m)
	m.SetAdd(&m, &t) // 3X²
	t.SetSquare(&j.z)
	t.SetSquare(&t)
	m.SetAdd(&m, &t) // M = 3X² + a·Z⁴, a = 1
	r.z.SetMul(&j.y, &j.z)
	r.z.SetDouble(&r.z) // Z' = 2YZ
	r.x.SetSquare(&m)
	t.SetDouble(&s)
	r.x.SetSub(&r.x, &t) // X' = M² − 2S
	s.SetSub(&s, &r.x)
	r.y.SetMul(&m, &s)
	ySq.SetSquare(&ySq)
	ySq.SetDouble(&ySq)
	ySq.SetDouble(&ySq)
	ySq.SetDouble(&ySq)
	r.y.SetSub(&r.y, &ySq) // Y' = M(S − X') − 8Y⁴
}

// addTerms are the cross-normalized intermediates both addition flavors
// share: with U = x·Z'², S = y·Z'³ (each operand scaled by the other's Z),
// u1 = U1, s1 = S1, h = U2 − U1 and r = S2 − S1. h = 0 means the operands
// share an x (equal when r = 0 too, opposite otherwise) or one is ∞.
type addTerms struct {
	u1, s1, h, r ff.Element
}

func (t *addTerms) set(j, k *jacPoint) {
	var zSq ff.Element
	zSq.SetSquare(&k.z)
	t.u1.SetMul(&j.x, &zSq)
	t.s1.SetMul(&j.y, &zSq)
	t.s1.SetMul(&t.s1, &k.z)
	zSq.SetSquare(&j.z)
	t.h.SetMul(&k.x, &zSq)
	t.r.SetMul(&k.y, &zSq)
	t.r.SetMul(&t.r, &j.z)
	t.h.SetSub(&t.h, &t.u1)
	t.r.SetSub(&t.r, &t.s1)
}

// sum finishes the general addition r = j + k from t = terms of (j, k),
// consuming t: X3 = R² − H³ − 2·U1·H², Y3 = R·(U1·H² − X3) − S1·H³,
// Z3 = Z1·Z2·H. Of j and k only the Z coordinates are read, first.
func (t *addTerms) sum(r, j, k *jacPoint) {
	var hSq, hCu ff.Element
	r.z.SetMul(&j.z, &k.z)
	r.z.SetMul(&r.z, &t.h)
	hSq.SetSquare(&t.h)
	hCu.SetMul(&hSq, &t.h)
	t.u1.SetMul(&t.u1, &hSq) // U1·H²
	r.x.SetSquare(&t.r)
	r.x.SetSub(&r.x, &hCu)
	hSq.SetDouble(&t.u1)
	r.x.SetSub(&r.x, &hSq)
	t.u1.SetSub(&t.u1, &r.x)
	r.y.SetMul(&t.r, &t.u1)
	t.s1.SetMul(&t.s1, &hCu)
	r.y.SetSub(&r.y, &t.s1)
}

// jacAdd sets r = j + k (general addition; falls back to doubling when the
// operands coincide). The exceptional cases branch, so this flavor is for
// public-scalar paths only; secret ladders use jacAddSecret.
func (c *Curve) jacAdd(r, j, k *jacPoint) {
	// The branches below are exceptional-case dispatch. On public-scalar
	// paths they are harmless; on the secret-base table path (oddMultiples
	// building iP from a private key D) their outcomes are constant on
	// the reachable domain: D is a valid non-identity subgroup point, and
	// iP = ±2P would need (i∓2)P = ∞ with 0 < |i∓2| < q — impossible.
	//mwslint:declassify infinity tag of a validated table base: extracted keys are never the identity, so the branch outcome is fixed
	if j.isInf() {
		*r = *k
		return
	}
	//mwslint:declassify infinity tag of a validated table base: extracted keys are never the identity, so the branch outcome is fixed
	if k.isInf() {
		*r = *j
		return
	}
	var t addTerms
	t.set(j, k)
	//mwslint:declassify exceptional-case detection: equal or opposite operands cannot occur in odd-multiple table construction over an order-q point, so the branch outcome is fixed
	if t.h.IsZeroBit() == 1 {
		//mwslint:declassify exceptional-case detection: equal or opposite operands cannot occur in odd-multiple table construction over an order-q point, so the branch outcome is fixed
		if t.r.IsZeroBit() == 1 {
			jacDouble(r, j)
			return
		}
		*r = c.jacInfinity()
		return
	}
	t.sum(r, j, k)
}

// selJac sets r = a when bit == 1 and r = b when bit == 0, selecting each
// coordinate with the branch-free SetSelect.
func selJac(r *jacPoint, bit uint64, a, b *jacPoint) {
	r.x.SetSelect(bit, &a.x, &b.x)
	r.y.SetSelect(bit, &a.y, &b.y)
	r.z.SetSelect(bit, &a.z, &b.z)
}

// jacAddSecret sets r = j + k with an input-independent instruction trace:
// it evaluates the general addition formula and the doubling formula
// unconditionally, then resolves the exceptional cases with masked
// selects.
//
// Case analysis (U = x·Z'², S = y·Z'³ are the cross-normalized
// coordinates): when U1 = U2 ∧ S1 = S2 the operands are equal and the
// general formula degenerates (H = R = 0 would yield (0,0,0), which is
// NOT the identity encoding) — the doubling result is selected instead.
// When U1 = U2 ∧ S1 ≠ S2 the operands are opposite and the general
// formula already emits Z3 = Z1·Z2·H = 0, the correct infinity. When
// either operand is at infinity its Z is zero, both formulas degenerate,
// and the other operand (or the sum so far) is selected. The selects are
// applied in that order so the infinity overrides win over the equality
// mask, which fires spuriously when a Z is zero (U and S both vanish).
// Sum and doubling go to locals because r may be j or k, which the selects
// still read.
func jacAddSecret(r, j, k *jacPoint) {
	var t addTerms
	var sum, dbl jacPoint
	t.set(j, k)
	mEq := t.h.IsZeroBit() & t.r.IsZeroBit() // operands equal (or a hidden infinity)
	t.sum(&sum, j, k)
	jacDouble(&dbl, j)
	mInfK := k.z.IsZeroBit() // k = ∞ → result is j
	mInfJ := j.z.IsZeroBit() // j = ∞ → result is k

	selJac(&sum, mEq, &dbl, &sum)
	selJac(&sum, mInfK, j, &sum)
	selJac(r, mInfJ, k, &sum)
}
