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
// The Miller loop runs in Jacobian coordinates with no per-step field
// inversion: each step emits the projective line coefficients (A, B, C)
// such that C·(line value at φ(Q)) = (A + B·x_Q) + (C·y_Q)·i, and the
// F_p scale C is absorbed by the final exponentiation. The coefficients
// depend only on the first argument, so they are precomputable
// (G1Precomp) and shareable across evaluations against many second
// arguments — the batch-decryption shape, where one private key meets a
// retrieval's worth of encapsulation points. Products of pairings
// (PairProduct) run their Miller loops in lockstep under a single shared
// final exponentiation.
//
// This package replaces the PBC C library used by the paper's prototype.
package pairing

import (
	"math/big"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
	"mwskit/internal/obsv"
)

// GT is an element of the target group μ_q ⊂ F_p²*. The zero value is not
// usable; obtain elements from Pair or GT operations.
type GT struct {
	v ff.E2
}

// E2 returns the underlying F_p² element.
func (g GT) E2() ff.E2 { return g.v }

// Bytes returns the canonical fixed-width encoding of the element, used
// as KDF input by the IBE layer. The encoding runs on the constant-time
// ff byte codec.
func (g GT) Bytes() []byte { return g.v.Bytes() }

// Equal reports whether two target-group elements are the same.
func (g GT) Equal(h GT) bool { return g.v.Equal(h.v) }

// IsOne reports whether g is the group identity.
func (g GT) IsOne() bool { return g.v.IsOne() }

// Mul returns g·h in the target group.
func (g GT) Mul(h GT) GT { return GT{v: g.v.Mul(h.v)} }

// Exp returns g^k by public square-and-multiply: the branch pattern
// follows the bits of k, so this is for PUBLIC exponents only (test
// scalars, protocol constants). Secret exponents — encapsulation
// randomness above all — must go through Pairing.GTExpSecret, mirroring
// the ScalarMult/ScalarMultSecret split in ec. Negative exponents use the
// group inverse (the conjugate, since elements of μ_q satisfy
// g^(p+1) = g·g^p = norm = 1).
func (g GT) Exp(k *big.Int) GT {
	if k.Sign() < 0 {
		inv := g.v.Conjugate() // g ∈ μ_{p+1} ⇒ g⁻¹ = conj(g)
		return GT{v: inv.Exp(new(big.Int).Neg(k))}
	}
	return GT{v: g.v.Exp(k)}
}

// Inv returns g⁻¹.
func (g GT) Inv() GT { return GT{v: g.v.Conjugate()} }

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
}

// New builds a Pairing for the given curve.
func New(c *ec.Curve) *Pairing {
	hModQ := new(big.Int).Mod(c.H, c.Q)
	two := c.F.FromInt64(2)
	return &Pairing{Curve: c, pPlus1DivQ: c.H, cofactorExp: hModQ.Mul(hModQ, c.H), two: two, half: two.Inv()}
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
	digits := e.Curve.RecodeSecretScalar(k)
	var tbl [8]ff.E2 // tbl[j] = g^(2j+1)
	var g2, acc, sel ff.E2
	tbl[0] = g.v
	g2.SetSquare(&g.v)
	for j := 1; j < len(tbl); j++ {
		tbl[j].SetMul(&tbl[j-1], &g2)
	}
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

// lineCoeffs are the projective coefficients of one Miller-loop line:
// the line through the relevant multiples of P, scaled by an F_p factor
// the final exponentiation kills, evaluates at the distorted point
// φ(Q) = (−x_Q, i·y_Q) to (a + b·x_Q) + (c·y_Q)·i.
type lineCoeffs struct {
	a, b, c ff.Element
}

// at sets v to the line's value at φ(Q) for Q = (xq, yq).
func (l *lineCoeffs) at(v *ff.E2, xq, yq *ff.Element) {
	v.A.SetMul(&l.b, xq)
	v.A.SetAdd(&l.a, &v.A)
	v.B.SetMul(&l.c, yq)
}

// millerStep is one iteration of the Miller loop: always a tangent
// (doubling) line, plus a chord (addition) line on the set bits of q.
// Whether the chord is present follows the public bits of q.
type millerStep struct {
	tan      lineCoeffs
	chord    lineCoeffs
	hasChord bool
}

// g1Jac is a minimal local Jacobian point for the precomputation walk:
// (X, Y, Z) ↦ (X/Z², Y/Z³). The formulas below share their intermediates
// with the line coefficients, which ec's Jacobian helpers do not expose.
type g1Jac struct {
	x, y, z ff.Element
}

// tangentStep doubles t in place with the a = 1 formulas and sets line to
// the tangent at the pre-doubling t. With x_T = X/Z², y_T = Y/Z³ and
// M = 3X² + Z⁴ the affine tangent value λ·(x_Q + x_T) − y_T scaled by
// C = 2YZ³ is (M·X − 2Y²) + (M·Z²)·x_Q, giving A = M·X − 2Y², B = M·Z²,
// C = Z'·Z² where Z' = 2YZ is also the doubled point's Z.
func tangentStep(line *lineCoeffs, t *g1Jac) {
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
	line.a.SetMul(&m, &t.x)
	s.SetDouble(&ySq)
	line.a.SetSub(&line.a, &s)
	line.b.SetMul(&m, &zSq)
	line.c.SetMul(&t.z, &zSq)
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
// and sets line to the chord through both. With H = x_p·Z² − X,
// R = y_p·Z³ − Y the affine chord value scaled by C = Z3·Z² (Z3 = Z·H) is
// (R·X − H·Y) + (R·Z²)·x_Q. A vertical chord (H = 0, the final
// T = −P step of the loop) degenerates gracefully: C = 0 puts the value
// in F_p, where the final exponentiation kills it, and Z3 = 0 marks the
// sum as infinity.
func chordStep(line *lineCoeffs, t *g1Jac, p *ec.Point) {
	var z1Sq, h, r, v, hCu ff.Element
	z1Sq.SetSquare(&t.z)
	h.SetMul(&p.X, &z1Sq)
	h.SetSub(&h, &t.x) // H
	r.SetMul(&p.Y, &z1Sq)
	r.SetMul(&r, &t.z)
	r.SetSub(&r, &t.y) // R
	t.z.SetMul(&t.z, &h)
	line.a.SetMul(&r, &t.x)
	v.SetMul(&h, &t.y)
	line.a.SetSub(&line.a, &v)
	line.b.SetMul(&r, &z1Sq)
	line.c.SetMul(&t.z, &z1Sq)
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

// G1Precomp caches the Miller-loop line coefficients of a fixed first
// argument P. The coefficients depend only on P and q, so one walk of the
// loop (all point arithmetic, no F_p² work) serves any number of
// evaluations against second arguments — e.g. one private key d_ID
// against every encapsulation point of a retrieval batch. Immutable and
// safe for concurrent use.
//
// The walk is exception-free for P of prime order q: intermediate
// multiples kP (0 < k < q) never hit infinity, the chord operands 2jP and
// P are never equal (2j is even, 1 is odd, both below q), and the only
// vertical chord is the final T = −P step, which chordStep handles
// without branching.
type G1Precomp struct {
	e     *Pairing
	steps []millerStep
	inf   bool
}

// G1Precomp builds the line-coefficient cache for a fixed first argument.
// P must lie in the order-q subgroup, like every first argument to Pair.
func (e *Pairing) G1Precomp(p ec.Point) *G1Precomp {
	//mwslint:declassify infinity tag is public wire structure; extracted private keys are never the identity, so the branch outcome is fixed for secret first arguments
	if p.Inf {
		return &G1Precomp{e: e, inf: true}
	}
	q := e.Curve.Q
	steps := make([]millerStep, q.BitLen()-1)
	t := g1Jac{x: p.X, y: p.Y, z: e.Curve.F.One()}
	for s := range steps {
		tangentStep(&steps[s].tan, &t)
		if q.Bit(len(steps)-1-s) == 1 {
			steps[s].hasChord = true
			chordStep(&steps[s].chord, &t, &p)
		}
	}
	return &G1Precomp{e: e, steps: steps}
}

// miller evaluates the cached Miller function at φ(Q), accumulating line
// numerators in F_p².
func (pre *G1Precomp) miller(q ec.Point) ff.E2 {
	f := pre.e.Curve.F.E2One()
	var line ff.E2
	for s := range pre.steps {
		st := &pre.steps[s]
		f.SetSquare(&f)
		st.tan.at(&line, &q.X, &q.Y)
		f.SetMul(&f, &line)
		//mwslint:declassify chord presence follows the bits of the public group order q, not the (possibly secret) point the steps were built from
		if st.hasChord {
			st.chord.at(&line, &q.X, &q.Y)
			f.SetMul(&f, &line)
		}
	}
	return f
}

// Pair evaluates ê(P, Q) against the precomputed first argument. Only P
// must have order q; Q may be any point of E(F_p) (see Pairing.Pair).
func (pre *G1Precomp) Pair(q ec.Point) GT {
	obsv.AddPairing()
	if pre.inf || q.Inf {
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
	if pre.inf || r.Inf {
		return pre.e.GTOne()
	}
	return GT{v: pre.e.finalExpBy(pre.miller(r), pre.e.cofactorExp)}
}

// PairProduct evaluates Π_i ê(P, Q_i) under a single shared final
// exponentiation: the Miller accumulators multiply together before the
// exponentiation, which runs once for the whole product.
func (pre *G1Precomp) PairProduct(qs ...ec.Point) GT {
	if pre.inf {
		return pre.e.GTOne()
	}
	f := pre.e.Curve.F.E2One()
	live := false
	for i := range qs {
		if qs[i].Inf {
			continue
		}
		obsv.AddPairing()
		m := pre.miller(qs[i])
		f.SetMul(&f, &m)
		live = true
	}
	if !live {
		return pre.e.GTOne()
	}
	return GT{v: pre.e.finalExp(f)}
}

// Pair computes the modified Tate pairing ê(P, Q); pairing with the
// identity returns 1. The FIRST argument must lie in the order-q subgroup
// G1: the Miller walk over its multiples is exception-free only then (see
// G1Precomp). The second may be any point of E(F_p) — it is only ever
// evaluated at, and its component of order dividing h = (p+1)/q pairs
// to 1 — so ê(P, Q) = ê(P, Q′) for the G1 component Q′ of Q. That is a
// property of the function, not a licence to skip validation: second
// arguments decoded from the wire (encapsulation and tag points) are still
// order-checked by their decoders, because a point outside G1 there is an
// attacker's choice (DESIGN.md §9).
func (e *Pairing) Pair(p, q ec.Point) GT {
	obsv.AddPairing()
	//mwslint:declassify infinity tags are public wire structure; extracted private keys are never the identity, so the branch outcome is fixed for secret operands
	if p.Inf || q.Inf {
		return e.GTOne()
	}
	return GT{v: e.finalExp(e.G1Precomp(p).miller(q))}
}

// PairProduct computes Π_i ê(P_i, Q_i) with the Miller loops run in
// lockstep — one shared F_p² squaring chain — and a single shared final
// exponentiation. A product of n pairings costs n Miller line
// evaluations but only one squaring chain and one exponentiation,
// against n of each for separate Pair calls. Identity pairs contribute
// the unit factor. The canonical caller is signature verification, which
// decides ê(P1, Q1) = ê(P2, Q2) as PairProduct((P1, Q1), (−P2, Q2)).IsOne().
func (e *Pairing) PairProduct(ps, qs []ec.Point) GT {
	if len(ps) != len(qs) {
		panic("pairing: PairProduct operand length mismatch")
	}
	pres := make([]*G1Precomp, 0, len(ps))
	live := make([]ec.Point, 0, len(ps))
	for i, p := range ps {
		if p.Inf || qs[i].Inf {
			continue
		}
		obsv.AddPairing()
		pres = append(pres, e.G1Precomp(p))
		live = append(live, qs[i])
	}
	if len(pres) == 0 {
		return e.GTOne()
	}
	f := e.Curve.F.E2One()
	var line ff.E2
	for s := range pres[0].steps {
		f.SetSquare(&f)
		for i, pre := range pres {
			st, q := &pre.steps[s], &live[i]
			st.tan.at(&line, &q.X, &q.Y)
			f.SetMul(&f, &line)
			if st.hasChord {
				st.chord.at(&line, &q.X, &q.Y)
				f.SetMul(&f, &line)
			}
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
// f = 0 has no inverse and panics as f.Inv() always did; no pairing of
// curve points produces it.
//
//mwslint:declassify reached only through finalExpBy's declassified branch, whose outcome no private key influences
func (e *Pairing) finalExpNoImag(f ff.E2, k *big.Int) ff.E2 {
	one := e.Curve.F.E2One()
	switch {
	case f.IsZero():
		panic("ff: inverse of zero in F_p²")
	case f.A.IsZero() && k.Bit(0) == 1:
		return one.Neg()
	}
	return one
}

// finalExpRef is the final exponentiation finalExp replaced: the easy
// part f^(p−1) = conj(f)·f⁻¹ via Frobenius, then square-and-multiply in
// F_p² with the public exponent (p+1)/q. It survives unexported as the
// independent reference the differential tests compare finalExp against.
func (e *Pairing) finalExpRef(f ff.E2) ff.E2 {
	g := f.Conjugate().Mul(f.Inv())
	return g.Exp(e.pPlus1DivQ)
}
