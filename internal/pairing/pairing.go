// Package pairing implements the modified Tate pairing on the supersingular
// curve E: y² = x³ + x over F_p (p ≡ 3 mod 4, embedding degree 2), the
// construction Boneh and Franklin proposed for identity-based encryption.
//
// The pairing is
//
//	ê(P, Q) = f_{q,P}(φ(Q))^((p²−1)/q) ∈ μ_q ⊂ F_p²*
//
// where φ(x, y) = (−x, i·y) is the distortion map carrying the order-q
// subgroup G1 ⊂ E(F_p) into a linearly independent subgroup of E(F_p²),
// and f_{q,P} is the Miller function. Because the embedding degree is 2
// and q | p+1, the final exponentiation exponent factors as
// (p−1)·((p+1)/q); every F_p-valued factor of the Miller accumulator is
// killed by the (p−1) part, so vertical-line denominators are eliminated
// and the Miller loop multiplies only line numerators.
//
// The Miller walk runs in Jacobian coordinates: each step emits line
// coefficients (A, B, C) with C·(line value at φ(Q)) = (A + B·x_Q) +
// (C·y_Q)·i. They depend only on the first argument, so G1Precomp builds
// them once per first argument — one private key against a retrieval's
// encapsulation points, one trapdoor against every stored tag — and one
// batch inversion divides out each F_p scale C, which the final
// exponentiation would kill anyway, leaving (a + b·x_Q) + y_Q·i. An
// evaluation multiplies each step's tangent and chord together before
// they meet the accumulator. Products of pairings (PairProduct) run their
// Miller loops in lockstep under a single shared final exponentiation.
//
// This package replaces the PBC C library used by the paper's prototype.
package pairing

import (
	"math/big"
	"slices"
	"sync"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
	"mwskit/internal/obsv"
)

// GT is an element of the target group μ_q ⊂ F_p²*. The zero value is not
// usable; obtain elements from Pair or GT operations.
type GT struct {
	v ff.E2
}

// Bytes returns the canonical fixed-width encoding of the element, used
// as KDF input by the IBE layer. The encoding runs on the constant-time
// ff byte codec.
func (g GT) Bytes() []byte { return g.v.Bytes() }

// IsOne reports whether g is the group identity.
func (g GT) IsOne() bool { return g.v.IsOne() }

// Pairing holds a curve plus the precomputed final-exponentiation data.
// Immutable and safe for concurrent use.
type Pairing struct {
	Curve *ec.Curve
	// pPlus1DivQ is (p+1)/q, the second factor of the final exponent.
	pPlus1DivQ *big.Int
	// cofactorExp is h·(h mod q) for the cofactor h = (p+1)/q: the second
	// factor of the final exponent times the public power that stands in
	// for clearing h on the curve (PairCofactor).
	cofactorExp *big.Int
	// two and half are the F_p constants 2 and 1/2 of the Lucas ladder in
	// finalExp.
	two, half ff.Element
	// naf is q in non-adjacent form, most significant digit first: the
	// digits of the Miller walk (G1Precomp).
	naf []int8
	// laneTwo and laneHalf are two and half in exact lane form, built by
	// laneConsts on the first lane batch (PairBatch).
	laneOnce          sync.Once
	laneTwo, laneHalf ff.Lanes
}

// New builds a Pairing for the given curve.
func New(c *ec.Curve) *Pairing {
	hModQ := new(big.Int).Mod(c.H, c.Q)
	two := c.F.FromInt64(2)
	return &Pairing{Curve: c, pPlus1DivQ: c.H, cofactorExp: hModQ.Mul(hModQ, c.H), two: two, half: two.Inv(), naf: nafDigits(c.Q)}
}

// nafDigits returns k > 0 in non-adjacent form, most significant digit
// first: digits in {−1, 0, 1}, about a third of them non-zero.
func nafDigits(k *big.Int) []int8 {
	var d []int8
	for k = new(big.Int).Set(k); k.Sign() > 0; k.Rsh(k, 1) {
		var di int8
		if k.Bit(0) == 1 {
			di = 1 - 2*int8(k.Bit(1)) // k ≡ 1 (mod 4) → 1, k ≡ 3 → −1
			k.Sub(k, big.NewInt(int64(di)))
		}
		d = append(d, di)
	}
	slices.Reverse(d)
	return d
}

// GTOne returns the identity of the target group.
func (e *Pairing) GTOne() GT { return GT{v: e.Curve.F.E2One()} }

// GTExpSecret returns g^k with an instruction trace and memory access
// pattern independent of k: the exponent is recoded into fixed-count
// signed odd digits on limb arrays (ec.RecodeSecretScalar) and the
// 8-entry odd-power table is read by full masked scans. Negative digits
// use the conjugate, so g must lie in μ_{p+1} — every pairing output
// does. The recoding adds a multiple of q to k, invisible in μ_q. Use
// this whenever the exponent is secret: the encapsulation randomness r
// in g_ID^r is the canonical case.
func (e *Pairing) GTExpSecret(g GT, k ec.Scalar) GT {
	var buf ec.SecretDigits
	digits := e.Curve.RecodeSecretScalar(k, &buf)
	var tbl [8]ff.E2
	var acc, sel ff.E2
	oddPowers(&tbl, &g.v)
	selE2Signed(&acc, &tbl, digits[len(digits)-1])
	for i := len(digits) - 2; i >= 0; i-- {
		for s := 0; s < 4; s++ {
			acc.SetSquare(&acc)
		}
		selE2Signed(&sel, &tbl, digits[i])
		acc.SetMul(&acc, &sel)
	}
	return GT{v: acc}
}

// oddPowers sets tbl[j] = g^(2j+1), the values one signed digit selects.
func oddPowers(tbl *[8]ff.E2, g *ff.E2) {
	var g2 ff.E2
	tbl[0] = *g
	g2.SetSquare(g)
	for j := 1; j < len(tbl); j++ {
		tbl[j].SetMul(&tbl[j-1], &g2)
	}
}

// GTComb is a fixed-base table for one element g of μ_q, the target-group
// twin of ec.Comb: for every window of the signed recoding it stores the
// odd powers the window's digit can select, pre-raised to the window's
// weight —
//
//	tbl[i][j] = g^((2j+1)·16^i)
//
// so ExpSecret(k) is one masked table scan and one F_p² product per
// digit, with no squarings, against GTExpSecret's four squarings and a
// product per digit. μ_q has no exceptional products, so unlike Comb.Mul
// no window lemma is needed. A build is one squaring and eight products
// per row (the next row's base is the row's last entry times its base),
// a few GTExpSecret in all, and on bf80 the 42 rows of eight ff.E2 hold
// ≈ 91 KB: it pays only for a base raised to many secret powers, a hot
// g_ID (bfibe). Immutable after NewGTComb and safe for concurrent use.
type GTComb struct {
	c   *ec.Curve
	tbl [][8]ff.E2
}

// NewGTComb builds the table for g, which must lie in μ_{p+1} as for
// GTExpSecret; every pairing output does.
func (e *Pairing) NewGTComb(g GT) *GTComb {
	// The recoding's digit count is fixed by q; zero's shows it.
	var buf ec.SecretDigits
	t := &GTComb{c: e.Curve, tbl: make([][8]ff.E2, len(e.Curve.RecodeSecretScalar(ec.Scalar{}, &buf)))}
	b := g.v
	for i := range t.tbl {
		oddPowers(&t.tbl[i], &b)
		b.SetMul(&t.tbl[i][len(t.tbl[i])-1], &b) // b^15·b: the next row's base
	}
	return t
}

// ExpSecret returns g^k with the same guarantee as GTExpSecret: a fixed
// digit count, every digit selected by a full masked scan of its row and
// multiplied in, whatever k.
func (t *GTComb) ExpSecret(k ec.Scalar) GT {
	var buf ec.SecretDigits
	digits := t.c.RecodeSecretScalar(k, &buf)
	var acc, sel ff.E2
	selE2Signed(&acc, &t.tbl[0], digits[0])
	for i := 1; i < len(digits); i++ {
		selE2Signed(&sel, &t.tbl[i], digits[i])
		acc.SetMul(&acc, &sel)
	}
	return GT{v: acc}
}

// selE2Signed sets z = tbl[(|d|−1)/2], conjugated when d < 0, scanning the
// whole table under an arithmetic mask — the μ_q analogue of ec's
// selectSigned.
func selE2Signed(z *ff.E2, tbl *[8]ff.E2, d int64) {
	m := d >> 63 // all ones iff d < 0
	abs := uint64((d ^ m) - m)
	idx := (abs - 1) >> 1
	*z = tbl[0]
	for j := 1; j < len(tbl); j++ {
		x := uint64(j) ^ idx
		hit := 1 - ((x | -x) >> 63) // 1 iff j == idx
		z.SetSelect(hit, &tbl[j], z)
	}
	var neg ff.Element
	neg.SetNeg(&z.B)
	z.B.SetSelect(uint64(m)&1, &neg, &z.B)
}

// line is one normalised Miller-loop line: the line through the relevant
// multiples of P divided by its F_p scale C (which the final
// exponentiation would kill anyway), so at the distorted point
// φ(Q) = (−x_Q, i·y_Q) it is worth (a + b·x_Q) + y_Q·i.
type line struct {
	a, b ff.Element
}

// millerStep is one iteration of the Miller loop: always a tangent
// (doubling) line, plus a chord (addition) line through ±P on the
// non-zero digits of q's NAF. Whether the chord is present follows those
// public digits.
type millerStep struct {
	tan      line
	chord    line
	hasChord bool
}

// at sets v to the step's value at φ(Q), Q = (x, y): A_t + y·i for the
// tangent alone (A_t = a_t + b_t·x), else tangent times chord,
// (A_t·A_c − y²) + y·(A_t + A_c)·i, with ySq = y² given once per Q.
func (st *millerStep) at(v *ff.E2, x, y, ySq *ff.Element) {
	v.A.SetMul(&st.tan.b, x)
	v.A.SetAdd(&v.A, &st.tan.a)
	//mwslint:declassify chord presence follows the public signed digits of the group order q, not the (possibly secret) point the steps were built from
	if !st.hasChord {
		v.B = *y
		return
	}
	var ac ff.Element
	ac.SetMul(&st.chord.b, x)
	ac.SetAdd(&ac, &st.chord.a)
	v.B.SetAdd(&v.A, &ac)
	v.B.SetMul(&v.B, y)
	v.A.SetMul(&v.A, &ac)
	v.A.SetSub(&v.A, ySq)
}

// g1Jac is a minimal local Jacobian point for the precomputation walk:
// (X, Y, Z) ↦ (X/Z², Y/Z³). The formulas below share their intermediates
// with the line coefficients, which ec's Jacobian helpers do not expose.
type g1Jac struct {
	x, y, z ff.Element
}

// tangentStep doubles t in place with the a = 1 formulas and sets l and
// scale to the tangent at the pre-doubling t. With x_T = X/Z², y_T = Y/Z³
// and M = 3X² + Z⁴ the affine tangent value λ·(x_Q + x_T) − y_T scaled by
// C = 2YZ³ is (M·X − 2Y²) + (M·Z²)·x_Q, giving a = M·X − 2Y², b = M·Z²,
// C = Z'·Z² where Z' = 2YZ is also the doubled point's Z.
func tangentStep(l *line, scale *ff.Element, t *g1Jac) {
	var ySq, zSq, m, s ff.Element
	ySq.SetSquare(&t.y)
	zSq.SetSquare(&t.z)
	m.SetSquare(&t.x)
	s.SetDouble(&m)
	m.SetAdd(&m, &s) // 3X²
	s.SetSquare(&zSq)
	m.SetAdd(&m, &s) // M = 3X² + Z⁴
	t.z.SetMul(&t.y, &t.z)
	t.z.SetDouble(&t.z) // Z' = 2YZ
	l.a.SetMul(&m, &t.x)
	s.SetDouble(&ySq)
	l.a.SetSub(&l.a, &s)
	l.b.SetMul(&m, &zSq)
	scale.SetMul(&t.z, &zSq)
	s.SetMul(&t.x, &ySq)
	s.SetDouble(&s)
	s.SetDouble(&s) // S = 4·X·Y²
	t.x.SetSquare(&m)
	zSq.SetDouble(&s)
	t.x.SetSub(&t.x, &zSq) // X' = M² − 2S
	s.SetSub(&s, &t.x)
	t.y.SetMul(&m, &s)
	ySq.SetSquare(&ySq)
	ySq.SetDouble(&ySq)
	ySq.SetDouble(&ySq)
	ySq.SetDouble(&ySq)
	t.y.SetSub(&t.y, &ySq) // Y' = M(S − X') − 8Y⁴
}

// chordStep adds the affine base point p to t in place (mixed addition)
// and sets l and scale to the chord through both. With H = x_p·Z² − X,
// R = y_p·Z³ − Y the affine chord value scaled by C = Z3·Z² (Z3 = Z·H) is
// (R·X − H·Y) + (R·Z²)·x_Q.
func chordStep(l *line, scale *ff.Element, t *g1Jac, p *ec.Point) {
	var z1Sq, h, r, v, hCu ff.Element
	z1Sq.SetSquare(&t.z)
	h.SetMul(&p.X, &z1Sq)
	h.SetSub(&h, &t.x) // H
	r.SetMul(&p.Y, &z1Sq)
	r.SetMul(&r, &t.z)
	r.SetSub(&r, &t.y) // R
	t.z.SetMul(&t.z, &h)
	l.a.SetMul(&r, &t.x)
	v.SetMul(&h, &t.y)
	l.a.SetSub(&l.a, &v)
	l.b.SetMul(&r, &z1Sq)
	scale.SetMul(&t.z, &z1Sq)
	z1Sq.SetSquare(&h) // H²
	hCu.SetMul(&z1Sq, &h)
	v.SetMul(&t.x, &z1Sq) // V = X·H²
	t.x.SetSquare(&r)
	t.x.SetSub(&t.x, &hCu)
	z1Sq.SetDouble(&v)
	t.x.SetSub(&t.x, &z1Sq) // X3 = R² − H³ − 2V
	hCu.SetMul(&t.y, &hCu)
	v.SetSub(&v, &t.x)
	t.y.SetMul(&r, &v)
	t.y.SetSub(&t.y, &hCu) // Y3 = R·(V − X3) − Y·H³
}

// G1Precomp caches the normalised Miller-loop lines of a fixed first
// argument P. The lines depend only on P and q, so one walk of the loop
// (all point arithmetic, no F_p² work) serves any number of evaluations
// against second arguments — e.g. one private key d_ID against every
// encapsulation point of a retrieval batch. Immutable and safe for
// concurrent use.
//
// The walk follows q's NAF: a tangent per digit below the leading one,
// and a chord through dP on each digit d = ±1. A −P chord adds the
// vertical through P to the Miller function, whose value lies in F_p and
// dies in the final exponentiation: the pairing is the binary walk's.
//
// The walk is exception-free for P of prime order q. A prefix k of q's
// NAF with i ≥ 1 digits after it lies within 2/3 of q/2^i, so
// 0 < k < q/2 + 1: kP is never ∞ or 2-torsion, no line scale vanishes,
// and the chord operands 2kP and dP meet (2k ≡ ±1 mod q) only at the
// last digit, where 2k + d = q. That chord, through −dP and dP, is
// vertical: its value lies in F_p, so it is not stored. All scales are
// inverted at once (Montgomery's trick).
//
// For a finite P outside G1 some scale is zero (T met ∞ or a 2-torsion
// point) or the last chord is not vertical, as qP = ∞ only in G1. A mask
// folds both without branching and makes the precomputation pair to 1
// with everything, which Decapsulate and Tester.Test refuse.
type G1Precomp struct {
	e     *Pairing
	steps []millerStep
	// one marks P = ∞ or P outside G1: every pairing against it is 1.
	one bool
	// lanes are the steps' lines as lane constants, built by laneLines on
	// the first lane batch (PairBatch).
	laneOnce sync.Once
	lanes    []ff.LaneConst
}

// G1Precomp builds the line cache for a fixed first argument. P must lie
// in the order-q subgroup, like every first argument to Pair; a finite P
// outside it yields a precomputation that pairs to 1.
func (e *Pairing) G1Precomp(p ec.Point) *G1Precomp {
	//mwslint:declassify infinity tag is public wire structure; extracted private keys are never the identity, so the branch outcome is fixed for secret first arguments
	if p.Inf {
		return &G1Precomp{e: e, one: true}
	}
	steps := make([]millerStep, len(e.naf)-1)
	lines := make([]*line, 0, 2*len(steps))
	scales := make([]ff.Element, 0, 2*len(steps))
	var scale ff.Element
	var last line // the final, vertical chord: checked, not kept
	t := g1Jac{x: p.X, y: p.Y, z: e.Curve.F.One()}
	neg := p // −P, negated without branching on p
	neg.Y.SetNeg(&p.Y)
	for s := range steps {
		st := &steps[s]
		tangentStep(&st.tan, &scale, &t)
		lines, scales = append(lines, &st.tan), append(scales, scale)
		d, add := e.naf[s+1], &p
		if d < 0 {
			add = &neg
		}
		if s == len(steps)-1 { // q is odd: the last digit is ±1
			chordStep(&last, &scale, &t, add)
		} else if d != 0 {
			st.hasChord = true
			chordStep(&st.chord, &scale, &t, add)
			lines, scales = append(lines, &st.chord), append(scales, scale)
		}
	}
	// T = −dP for the last digit d exactly when the last chord is vertical
	// (scale 0) and not a tangent at T = dP or through ∞ (b = R·Z² ≠ 0).
	bad := (1 ^ scale.IsZeroBit()) | last.b.IsZeroBit()
	// Montgomery's trick: prefix products, one Inv (1 stands in for a zero
	// product), and a walk back peeling each scale's inverse off the rest.
	prefix := make([]ff.Element, len(scales))
	prefix[0] = scales[0]
	for i := 1; i < len(scales); i++ {
		prefix[i].SetMul(&prefix[i-1], &scales[i])
	}
	one, inv := e.Curve.F.One(), prefix[len(prefix)-1]
	zero := inv.IsZeroBit()
	inv.SetSelect(zero, &one, &inv)
	inv = inv.Inv()
	for i := len(scales) - 1; i >= 0; i-- {
		cInv := inv
		if i > 0 {
			cInv.SetMul(&inv, &prefix[i-1])
			inv.SetMul(&inv, &scales[i])
		}
		lines[i].a.SetMul(&lines[i].a, &cInv)
		lines[i].b.SetMul(&lines[i].b, &cInv)
	}
	//mwslint:declassify the mask is set only for a first argument outside G1, and every private key and trapdoor is made in G1 by extraction, so its outcome is fixed for every honest secret
	if zero|bad == 1 {
		return &G1Precomp{e: e, one: true}
	}
	return &G1Precomp{e: e, steps: steps}
}

// PairsToOne reports whether the walk's mask fired: P is ∞ or outside G1,
// and every pairing against pre is 1.
func (pre *G1Precomp) PairsToOne() bool { return pre.one }

// miller evaluates the cached Miller function at φ(Q), accumulating the
// steps' line values in F_p².
func (pre *G1Precomp) miller(q ec.Point) ff.E2 {
	f := pre.e.Curve.F.E2One()
	var v ff.E2
	var ySq ff.Element
	ySq.SetSquare(&q.Y)
	for s := range pre.steps {
		f.SetSquare(&f)
		pre.steps[s].at(&v, &q.X, &q.Y, &ySq)
		f.SetMul(&f, &v)
	}
	return f
}

// Pair evaluates ê(P, Q) against the precomputed first argument. Only P
// must have order q; Q may be any point of E(F_p) (see Pairing.Pair).
func (pre *G1Precomp) Pair(q ec.Point) GT {
	obsv.AddPairing()
	if pre.one || q.Inf {
		return pre.e.GTOne()
	}
	return GT{v: pre.e.finalExp(pre.miller(q))}
}

// PairCofactor evaluates ê(P, h·R) for any point R of E(F_p), h = (p+1)/q
// the cofactor, without multiplying by h on the curve: the Tate
// pairing is bilinear in a second argument taken modulo qE, so
// ê(P, h·R) = ê(P, R)^h = ê(P, R)^(h mod q), and that public power rides
// in the Lucas ladder of the final exponentiation as the single exponent
// h·(h mod q). The result is the field element Pair(ClearCofactor(R))
// computes, bit for bit, and is 1 exactly when h·R = ∞ (gcd(h, q) = 1,
// which Params.Validate demands). It is how a hashed identity meets the
// fixed P_pub: R comes out of HashToCurvePoint, so nothing here is secret
// or attacker-chosen.
func (pre *G1Precomp) PairCofactor(r ec.Point) GT {
	obsv.AddPairing()
	if pre.one || r.Inf {
		return pre.e.GTOne()
	}
	return GT{v: pre.e.finalExpBy(pre.miller(r), pre.e.cofactorExp)}
}

// Pair computes the modified Tate pairing ê(P, Q); pairing with the
// identity returns 1. The FIRST argument must lie in the order-q subgroup
// G1, the only place its Miller walk is exception-free (a P outside it
// pairs to 1, see G1Precomp). The second may be any point of E(F_p) — it
// is only ever evaluated at, and its component of order dividing
// h = (p+1)/q pairs to 1 — so ê(P, Q) = ê(P, Q′) for the G1 component Q′
// of Q, and the value is 1 exactly when Q′ = ∞. The decoders rely on it:
// a point only ever paired as a second argument (an encapsulation or tag
// point) is curve-checked, not order-checked, since an off-subgroup Q
// probes nothing Q′ does not (DESIGN.md §9, checked against a reference
// pairing in refpair_test.go).
func (e *Pairing) Pair(p, q ec.Point) GT { return e.G1Precomp(p).Pair(q) }

// PairProduct computes Π_i ê(P_i, Q_i) over precomputed first arguments
// with the Miller loops run in lockstep — one shared F_p² squaring chain —
// and a single shared final exponentiation. A product of n pairings costs
// n line evaluations per step but only one squaring chain and one
// exponentiation, against n of each for separate Pair calls. Terms whose
// precomputation pairs to 1 or whose Q is ∞ contribute the unit factor.
// The canonical caller is signature verification, which decides
// ê(P1, Q1) = ê(P2, Q2) as PairProduct((P1, Q1), (P2, −Q2)).IsOne()
// against lines it keeps.
func (e *Pairing) PairProduct(pres []*G1Precomp, qs []ec.Point) GT {
	if len(pres) != len(qs) {
		panic("pairing: PairProduct operand length mismatch")
	}
	live, ySq := make([]int, 0, len(pres)), make([]ff.Element, len(pres))
	for i, pre := range pres {
		if pre.one || qs[i].Inf {
			continue
		}
		obsv.AddPairing()
		live = append(live, i)
		ySq[i].SetSquare(&qs[i].Y)
	}
	if len(live) == 0 {
		return e.GTOne()
	}
	f := e.Curve.F.E2One()
	var v ff.E2
	for s := range pres[live[0]].steps {
		f.SetSquare(&f)
		for _, i := range live {
			pres[i].steps[s].at(&v, &qs[i].X, &qs[i].Y, &ySq[i])
			f.SetMul(&f, &v)
		}
	}
	return GT{v: e.finalExp(f)}
}

// finalExp raises the Miller accumulator to (p²−1)/q = (p−1)·((p+1)/q).
//
// The easy part g = f^(p−1) = conj(f)/f has norm 1, so g^k for
// k = (p+1)/q is determined by the Lucas sequence V_j = g^j + g^(−j) ∈ F_p
// with V_0 = 2, V_1 = 2·Re(g): a ladder on (V_j, V_{j+1}) costs one
// squaring and one multiplication in F_p per bit of k, where
// square-and-multiply in F_p² costs about three and a half. This is the
// exponentiation PBC — the paper's library — uses for its type-A curves.
// Then Re(g^k) = V_k/2 and Im(g^k) = (Re(g)·V_k − V_{k+1})/(2·Im(g)).
//
// With f = x + y·i and N = x² + y², g = ((x² − y²) − 2xy·i)/N, so the
// division by N and the one by 2·Im(g) = −4xy/N share a single F_p
// inversion, that of −4xy·N. The result equals finalExpRef(f) bit for
// bit: both compute the same field element, and encodings are canonical.
func (e *Pairing) finalExp(f ff.E2) ff.E2 { return e.finalExpBy(f, e.pPlus1DivQ) }

// finalExpBy is finalExp with the second factor of the exponent given:
// f^((p−1)·k) for a public k, (p+1)/q or a multiple of it.
func (e *Pairing) finalExpBy(f ff.E2, k *big.Int) ff.E2 {
	x, y := f.A, f.B
	im := x.Mul(y).Double().Neg() // −2xy = N·Im(g)
	//mwslint:declassify the pairing is non-degenerate on order-q points, so g ≠ ±1 and the outcome is fixed whenever a private key is an operand; only crafted accumulators and products of public pairings can take the branch
	if im.IsZero() {
		return e.finalExpNoImag(f, k)
	}
	re := x.Add(y).Mul(x.Sub(y)) // x² − y² = N·Re(g)
	n := re.Add(y.Square().Double())
	im2 := im.Double()
	inv := n.Mul(im2).Inv()      // 1/(2·N²·Im(g))
	a := re.Mul(inv.Mul(im2))    // Re(g) = re/N
	inv2b := n.Square().Mul(inv) // 1/(2·Im(g))
	p := a.Double()              // V_1
	v0, v1 := e.two, p           // (V_j, V_{j+1}) at j = 0
	for i := k.BitLen() - 1; i >= 0; i-- {
		// One of the pair becomes the cross term V_{2j+1} = V_j·V_{j+1} − V_1,
		// first, while both are intact; the other its own square − 2.
		if k.Bit(i) == 1 {
			v0.SetMul(&v0, &v1)
			v0.SetSub(&v0, &p)
			v1.SetSquare(&v1)
			v1.SetSub(&v1, &e.two)
		} else {
			v1.SetMul(&v0, &v1)
			v1.SetSub(&v1, &p)
			v0.SetSquare(&v0)
			v0.SetSub(&v0, &e.two)
		}
	}
	return ff.NewE2(v0.Mul(e.half), a.Mul(v0).Sub(v1).Mul(inv2b))
}

// finalExpNoImag is finalExpBy for an accumulator with a zero coordinate,
// where g = conj(f)/f is ±1 and there is no Im(g) to divide by: f ∈ F_p
// gives g = 1, f ∈ i·F_p gives g = −1 and the result is (−1)^k.
// f = 0, which no pairing of a G1 first argument produces, yields 1,
// the value Decapsulate and Tester.Test refuse.
//
//mwslint:declassify reached only through finalExpBy's declassified branch, whose outcome no private key influences
func (e *Pairing) finalExpNoImag(f ff.E2, k *big.Int) ff.E2 {
	one := e.Curve.F.E2One()
	if !f.IsZero() && f.A.IsZero() && k.Bit(0) == 1 {
		return one.Neg()
	}
	return one
}
