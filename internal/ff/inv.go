package ff

import "math/bits"

// Inversion by Bernstein–Yang safegcd ("Fast constant-time gcd computation
// and modular inversion", TCHES 2019), structured as libsecp256k1's
// modinv64: δ = 1 divsteps run in batches of 59 on the low limbs of f and
// g, and each batch's transition matrix, scaled by 2⁶², is applied to
// (f, g) and to the Bézout pair (d, e) in signed 62-bit limbs. Theorem
// 11.2 bounds the divsteps that drive g to 0 by ⌊(49d+80)/17⌋ for a d-bit
// modulus (the larger of its two cases), so the batch count depends on the
// modulus only. Every loop runs to that count, to 59 or to the
// signed-limb count, and every decision on a value is a mask.

const (
	s62Limbs         = MaxLimbs + 1 // ⌊d/62⌋ + 1 signed limbs for d ≤ 64·MaxLimbs
	divstepsPerBatch = 59
	m62              = 1<<62 - 1
)

// s62 is a signed integer in base 2⁶²: limbs below the field's k−1 lie in
// [0, 2⁶²), and limb k−1 carries the sign and every bit above them.
type s62 = [s62Limbs]int64

// trans is a batch's matrix [u v; q r] scaled by 2⁶²: the batch maps
// (f, g) to (u·f + v·g, q·f + r·g)/2⁶², with |u|+|v|, |q|+|r| ≤ 2⁶².
type trans struct{ u, v, q, r int64 }

// invBatchCount is Theorem 11.2's divstep bound for a bits-bit modulus,
// rounded up to whole batches.
func invBatchCount(bits int) int {
	return ((49*bits+80)/17 + divstepsPerBatch - 1) / divstepsPerBatch
}

// divsteps59 runs 59 divsteps on the low bits of f and g:
// (δ, f, g) ↦ (1−δ, g, (g−f)/2) when δ > 0 and g is odd, else
// (1+δ, f, (g + (g mod 2)·f)/2). The matrix starts at 8 = 2³ and
// (u, v) doubles at each halving of g in place of halving (q, r).
func divsteps59(delta int64, f, g uint64) (int64, trans) {
	u, v, q, r := uint64(8), uint64(0), uint64(0), uint64(8)
	for i := 0; i < divstepsPerBatch; i++ {
		// g gains −f (δ > 0) or f when odd; when both, f gains that
		// difference, which makes it the old g. (u, v), (q, r) follow.
		pos, odd := uint64((-delta)>>63), -(g & 1)
		g += ((f ^ pos) - pos) & odd
		q += ((u ^ pos) - pos) & odd
		r += ((v ^ pos) - pos) & odd
		swap := pos & odd
		delta = (delta ^ int64(swap)) - int64(swap) + 1
		f += g & swap
		u += q & swap
		v += r & swap
		g >>= 1
		u <<= 1
		v <<= 1
	}
	return delta, trans{int64(u), int64(v), int64(q), int64(r)}
}

// acc is a signed 128-bit accumulator in two's complement.
type acc struct{ lo, hi uint64 }

// mulAdd adds the signed product a·b: the unsigned product, with each
// negative factor's wrap-around taken back out of the high word.
func (c *acc) mulAdd(a, b int64) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	var cy uint64
	c.lo, cy = bits.Add64(c.lo, lo, 0)
	c.hi += hi + cy - uint64(a>>63)&uint64(b) - uint64(b>>63)&uint64(a)
}

// shr62 shifts right by 62, arithmetically.
func (c *acc) shr62() { c.lo, c.hi = c.lo>>62|c.hi<<2, uint64(int64(c.hi)>>62) }

// update sets (x, y) = t·(x, y)/2⁶², exact for (f, g) by construction of
// t. For the residues (d, e) (reduce) it first adds the multiples of p that
// clear the low 62 bits — plus p once for each negative input, so that
// (−2p, p) maps into itself — which keeps d ≡ f/a and e ≡ g/a (mod p).
func (fl *Field) update(x, y *s62, t *trans, reduce bool) {
	k := fl.k62
	var mx, my int64
	var cx, cy acc
	cx.mulAdd(t.u, x[0])
	cx.mulAdd(t.v, y[0])
	cy.mulAdd(t.q, x[0])
	cy.mulAdd(t.r, y[0])
	if reduce {
		sx, sy := x[k-1]>>63, y[k-1]>>63
		mx, my = t.u&sx+t.v&sy, t.q&sx+t.r&sy
		mx -= int64((fl.pInv62*cx.lo + uint64(mx)) & m62)
		my -= int64((fl.pInv62*cy.lo + uint64(my)) & m62)
		cx.mulAdd(fl.p62[0], mx)
		cy.mulAdd(fl.p62[0], my)
	}
	for i := 1; i < k; i++ {
		cx.shr62()
		cy.shr62()
		cx.mulAdd(t.u, x[i])
		cx.mulAdd(t.v, y[i])
		cy.mulAdd(t.q, x[i])
		cy.mulAdd(t.r, y[i])
		if reduce {
			cx.mulAdd(fl.p62[i], mx)
			cy.mulAdd(fl.p62[i], my)
		}
		x[i-1], y[i-1] = int64(cx.lo&m62), int64(cy.lo&m62)
	}
	cx.shr62()
	cy.shr62()
	x[k-1], y[k-1] = int64(cx.lo), int64(cy.lo)
}

// normalize brings d from (−2p, p) to [0, p), negated when sign < 0 (f
// ended at −1): p added if negative, negation, carries, p added again if
// still negative, carries.
func (fl *Field) normalize(d *s62, sign int64) {
	k, neg := fl.k62, sign>>63
	for pass := 0; pass < 2; pass++ {
		add := d[k-1] >> 63
		for i := 0; i < k; i++ {
			d[i] += fl.p62[i] & add
			if pass == 0 {
				d[i] = (d[i] ^ neg) - neg
			}
		}
		for i := 0; i < k-1; i++ {
			d[i+1] += d[i] >> 62
			d[i] &= m62
		}
	}
}

// toS62 and fromS62 move a non-negative value below 2^(62k) between
// 64-bit and k signed-62 limbs; the indices follow k alone, and Go's
// shift by 64 is 0.
func toS62(x *limbs, k int) (s s62) {
	for i := 0; i < k; i++ {
		j, sh := 62*i/64, uint(62*i%64)
		v := x[j] >> sh
		if j+1 < MaxLimbs {
			v |= x[j+1] << (64 - sh)
		}
		s[i] = int64(v & m62)
	}
	return s
}

func fromS62(s *s62, k int) (x limbs) {
	for i := 0; i < k; i++ {
		j, sh := 62*i/64, uint(62*i%64)
		x[j] |= uint64(s[i]) << sh
		if j+1 < MaxLimbs {
			x[j+1] |= uint64(s[i]) >> (64 - sh)
		}
	}
	return x
}

// invMont sets z = a⁻¹ for a non-zero Montgomery-form a = x·R: safegcd
// gives (x·R)⁻¹, and one Montgomery multiplication by R³ returns x⁻¹·R.
func (fl *Field) invMont(z, a *limbs) {
	var d, e s62
	e[0] = 1
	f, g, delta := fl.p62, toS62(a, fl.k62), int64(1)
	for b := 0; b < fl.invBatches; b++ {
		var t trans
		delta, t = divsteps59(delta, uint64(f[0]), uint64(g[0]))
		fl.update(&d, &e, &t, true)
		fl.update(&f, &g, &t, false)
	}
	// g = 0 and f = ±gcd(p, a) = ±1, so d ≡ ±a⁻¹.
	fl.normalize(&d, f[fl.k62-1])
	x := fromS62(&d, fl.k62)
	montMul(z, &x, &fl.r3, &fl.pl, fl.m0, fl.n)
}

// The Jacobi symbol by Bernstein–Yang posdivsteps, ported from
// libsecp256k1's secp256k1_jacobi64_maybe_var: the same batches of 62
// steps on the low 64 bits of (f, g) and the same update, but g takes
// a multiple of f in place of −f when the two swap, so both stay positive
// and quadratic reciprocity can be tracked along the way. Unlike invMont
// it is variable-time: each batch strips g's trailing zeros at once, and
// the walk stops as soon as f reaches 1. Nothing bounds its length for
// every input, hence a batch limit and an undecided answer past it.

// posdivsteps62 runs 62 posdivsteps on f0 and g0, (f, g) mod 2⁶⁴, from
// η = −δ, and returns the new η and the batch's matrix scaled by 2⁶². Bit
// 0 of *jac flips each time the Jacobi symbol (g | f) changes sign:
// halving g when f ≡ 3 or 5 (mod 8), swapping f and g when both are
// ≡ 3 (mod 4). Where the next step adds f to g it adds the multiple w·f
// that clears up to six of g's low bits (four when η ≥ 0) in one go.
func posdivsteps62(eta int64, f0, g0 uint64, jac *uint64) (int64, trans) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	f, g := f0, g0
	for i := 62; ; {
		// A sentinel bit stops the count of g's zeros at the i steps left.
		zeros := bits.TrailingZeros64(g | ^uint64(0)<<i)
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= int64(zeros)
		i -= zeros
		*jac ^= uint64(zeros) & (f>>1 ^ f>>2)
		if i == 0 {
			return eta, trans{int64(u), int64(v), int64(q), int64(r)}
		}
		var w, m uint64
		if eta < 0 {
			eta = -eta
			f, g, u, q, v, r = g, f, q, u, r, v
			*jac ^= (f & g) >> 1
			m = ^uint64(0) >> (64 - min(int(eta)+1, i)) & 63
			w = f * g * (f*f - 2) & m
		} else {
			m = ^uint64(0) >> (64 - min(int(eta)+1, i)) & 15
			w = f + (f+1)&4<<1
			w = -w * g & m
		}
		g += f * w
		q += u * w
		r += v * w
	}
}

// jacobiBatchCount bounds Jacobi's batches of 62 posdivsteps for a
// bits-bit modulus at six steps a bit. The walk has no proven bound; over
// random elements of the preset fields it takes 2.99–3.06 steps a bit on
// average and 3.38 at most, so the bound is twice the average
// (TestJacobiMatchesBig counts what goes undecided).
func jacobiBatchCount(bits int) int { return (6*bits + 61) / 62 }

// jacobiMont returns (a | p) for a Montgomery-form a = x·R. R = 2^(64n)
// is an even power of two and so a square, and (x·R | p) = (x | p). It
// returns 0 for a = 0 and for a walk that has not reached f = 1 within
// the field's batch bound.
func (fl *Field) jacobiMont(a *limbs) int {
	if iszeroN(a, fl.n) == 1 {
		return 0
	}
	k := fl.k62
	f, g, eta, jac := fl.p62, toS62(a, k), int64(-1), uint64(0)
	for b := 0; b < fl.jacobiBatches; b++ {
		var t trans
		eta, t = posdivsteps62(eta, uint64(f[0])|uint64(f[1])<<62, uint64(g[0])|uint64(g[1])<<62, &jac)
		fl.update(&f, &g, &t, false)
		// gcd(p, a) = 1, so the walk ends at f = 1, where (g | 1) = 1.
		if f[0] == 1 {
			rest := int64(0)
			for _, l := range f[1:k] {
				rest |= l
			}
			if rest == 0 {
				return 1 - 2*int(jac&1)
			}
		}
	}
	return 0
}
