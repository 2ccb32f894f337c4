package ff

import "math/big"

// The lane kernel: LaneWidth elements of one field multiplied, added or
// subtracted by a single instruction stream (AVX-512 IFMA, emitted by
// gen_mont8.go into mont8_amd64.s; under -tags lanego, where IFMA is
// absent, the portable Go kernel of lane_go.go). An element spans ten
// 52-bit limbs, so the kernel serves every field of at most laneMaxLimbs
// 64-bit limbs, in Montgomery form with R' = 2⁵²⁰. Lane arithmetic is exact and reduced:
// every output is the canonical residue in [0, p), whatever the lane
// holds, with no branch and no lane-dependent memory access.
//
// An Element's limbs regrouped into 52-bit limbs (SetRaw) are a lane
// value of e·R/R', R = 2^(64n) the scalar Montgomery radix. A raw copy
// becomes exact lane form with one multiplication by R'²/R (LaneExact)
// and goes back with one by R (LaneElements). Where an F_p scale does not
// matter — the Miller accumulator, whose scale the final exponentiation
// kills — the raw copy is used as is.

// LaneWidth is the number of elements one lane vector holds.
const LaneWidth = 8

const (
	laneLimbs    = 10 // 52-bit limbs per element: 520 bits
	laneMaxLimbs = 8  // p < 2⁵¹² keeps 4p < R' = 2⁵²⁰, the kernel's bound
	laneMask     = 1<<52 - 1
)

// Lanes holds LaneWidth elements of one field limb-major: limb i of lane
// j is [i][j], ten 52-bit limbs per element in lane Montgomery form. The
// zero value is eight zeros.
type Lanes [laneLimbs][LaneWidth]uint64

// LaneConst is one element in the lane layout, which the Const methods
// broadcast to every lane: a trapdoor's line coefficient, shared by all
// the tags a batch tests, costs 80 bytes rather than a Lanes' 640.
type LaneConst [laneLimbs]uint64

// laneMod is a field's modulus as the kernel reads it: p's 52-bit limbs
// and −p⁻¹ mod 2⁵².
type laneMod struct {
	p [laneLimbs]uint64
	m uint64
}

// laneConsts holds a field's lane conversion constants, as integers mod p
// in 52-bit limbs; initLane fills it at construction.
type laneConsts struct {
	mod laneMod
	in  LaneConst // R'²/R: a raw copy times this is exact lane form
	out LaneConst // R: exact lane form times this is the raw copy of the Element
	fix LaneConst // (R'/R)² in lane form: carries a raw inverse back to exact
}

// initLane computes the lane constants of a field of at most
// laneMaxLimbs limbs; wider fields have none and HasLanes is false.
func (f *Field) initLane() {
	if f.n > laneMaxLimbs {
		return
	}
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*f.n))
	rl := new(big.Int).Lsh(big.NewInt(1), 52*laneLimbs)
	rInv := new(big.Int).ModInverse(r, f.p)
	mod := func(v *big.Int) LaneConst { return split52(v.Mod(v, f.p)) }
	f.lane.mod.p = split52(f.p)
	f.lane.mod.m = f.m0 & laneMask
	f.lane.in = mod(new(big.Int).Mul(new(big.Int).Mul(rl, rl), rInv))
	f.lane.out = mod(new(big.Int).Set(r))
	f.lane.fix = mod(new(big.Int).Mul(new(big.Int).Exp(rl, big.NewInt(3), nil), new(big.Int).Mul(rInv, rInv)))
}

// split52 regroups a public value below 2⁵²⁰ into 52-bit limbs.
func split52(v *big.Int) LaneConst {
	var c LaneConst
	w := new(big.Int).Set(v)
	m := big.NewInt(laneMask)
	for i := range c {
		c[i] = new(big.Int).And(w, m).Uint64()
		w.Rsh(w, 52)
	}
	return c
}

// HasLanes reports whether the lane methods run for this field: the
// processor and OS provide AVX-512 IFMA, or the build carries the
// portable kernel (lane_go.go, -tags lanego), and the modulus has at most
// laneMaxLimbs limbs. All are fixed for the process; the lane methods
// must not be called when it is false.
func (f *Field) HasLanes() bool { return (useIFMA || laneGo) && f.n <= laneMaxLimbs }

// LaneMul sets z = x·y lane by lane. z may alias x, y or both.
func (f *Field) LaneMul(z, x, y *Lanes) { laneMul(z, x, y, &f.lane.mod) }

// LaneMulConst sets z = x·c in every lane. z may alias x.
func (f *Field) LaneMulConst(z, x *Lanes, c *LaneConst) { laneMulConst(z, x, c, &f.lane.mod) }

// LaneAdd sets z = x + y lane by lane. z may alias x, y or both.
func (f *Field) LaneAdd(z, x, y *Lanes) { laneAdd(z, x, y, &f.lane.mod) }

// LaneAddConst sets z = x + c in every lane. z may alias x.
func (f *Field) LaneAddConst(z, x *Lanes, c *LaneConst) { laneAddConst(z, x, c, &f.lane.mod) }

// LaneSub sets z = x − y lane by lane. z may alias x, y or both.
func (f *Field) LaneSub(z, x, y *Lanes) { laneSub(z, x, y, &f.lane.mod) }

// SetRaw sets lane j of z to e's Montgomery limbs regrouped into 52-bit
// limbs: the lane value e·R/R'. Constant-time in e.
func (z *Lanes) SetRaw(j int, e *Element) {
	var w [laneMaxLimbs + 1]uint64
	copy(w[:e.f.n], e.v[:e.f.n])
	for i := range z {
		b := 52 * i
		z[i][j] = (w[b/64]>>(b%64) | w[b/64+1]<<(64-b%64)) & laneMask
	}
}

// SetConst sets lane j of z to c: a lane batch over several
// precomputations gathers each lane's line coefficient by lane index.
func (z *Lanes) SetConst(j int, c *LaneConst) {
	for i := range z {
		z[i][j] = c[i]
	}
}

// LaneConst returns e's raw copy as a broadcast constant, SetRaw's lane
// value in every lane.
func (e *Element) LaneConst() LaneConst {
	var l Lanes
	l.SetRaw(0, e)
	var c LaneConst
	for i := range c {
		c[i] = l[i][0]
	}
	return c
}

// laneRaw returns lane j of x as an Element: SetRaw's inverse, the
// element whose Montgomery limbs are the lane's. Constant-time.
func (f *Field) laneRaw(x *Lanes, j int) Element {
	var w [laneMaxLimbs + 2]uint64
	for i := range x {
		b := 52 * i
		w[b/64] |= x[i][j] << (b % 64)
		w[b/64+1] |= x[i][j] >> (64 - b%64)
	}
	e := Element{f: f}
	copy(e.v[:f.n], w[:f.n])
	return e
}

// LaneExact sets z to the exact lane form of x's raw copies: one lane
// multiplication by R'²/R. z may alias x.
func (f *Field) LaneExact(z, x *Lanes) { f.LaneMulConst(z, x, &f.lane.in) }

// LaneElements writes each lane of the exact lane form x to out: one lane
// multiplication by R, then the raw copy back.
func (f *Field) LaneElements(out *[LaneWidth]Element, x *Lanes) {
	var t Lanes
	f.LaneMulConst(&t, x, &f.lane.out)
	for j := range out {
		out[j] = f.laneRaw(&t, j)
	}
}

// ZeroBits returns 1 for each lane of x that holds zero and 0 for the
// others, in constant time. Lane outputs are reduced, so zero has one
// form.
func (x *Lanes) ZeroBits() [LaneWidth]uint64 {
	var or, b [LaneWidth]uint64
	for i := range x {
		for j := range or {
			or[j] |= x[i][j]
		}
	}
	for j := range b {
		b[j] = 1 ^ (or[j]|-or[j])>>63
	}
	return b
}

// LaneInv sets z to the lane-wise inverse of x, a zero lane giving zero.
// The lanes share one inversion by Montgomery's trick, a zero lane
// standing in as 1: three multiplications a lane and one safegcd
// inversion instead of eight. z may alias x; constant-time.
func (f *Field) LaneInv(z, x *Lanes) {
	var e, prefix [LaneWidth]Element
	zero := x.ZeroBits()
	one, nul := f.One(), f.Zero()
	for j := range e {
		e[j] = f.laneRaw(x, j)
		e[j].SetSelect(zero[j], &one, &e[j])
	}
	prefix[0] = e[0]
	for j := 1; j < LaneWidth; j++ {
		prefix[j].SetMul(&prefix[j-1], &e[j])
	}
	inv := Element{f: f}
	f.invMont(&inv.v, &prefix[LaneWidth-1].v)
	for j := LaneWidth - 1; j >= 0; j-- {
		ej := inv
		if j > 0 {
			ej.SetMul(&inv, &prefix[j-1])
			inv.SetMul(&inv, &e[j])
		}
		ej.SetSelect(zero[j], &nul, &ej)
		z.SetRaw(j, &ej)
	}
	// A raw copy of the inverse of the raw copy e = x·R'/R is worth
	// x⁻¹·(R/R')² in the lanes.
	f.LaneMulConst(z, z, &f.lane.fix)
}
