//go:build lanego

package ff

import "math/bits"

// The portable lane kernel: the IFMA kernel's five operations in Go, one
// lane at a time, under its contract — operands below p, outputs the
// canonical residue, no branch or memory access that depends on a lane's
// value. Built only with -tags lanego, so that hosts without AVX-512 IFMA
// run the lane paths (pairing.PairBatch and its callers) in
// tests; no default build links it, and where IFMA is present it stays
// the kernel that runs.

// laneGo reports that the portable kernel is linked; tests turn it off to
// check the dispatch without lanes.
var laneGo = true

// kernel picks the lane methods' kernel: IFMA where the processor has
// it, else the portable one.
func kernel[K any](ifma, portable K) K {
	if useIFMA {
		return ifma
	}
	return portable
}

func laneMul(z, x, y *Lanes, m *laneMod) { kernel(laneMulIFMA, laneMulGo)(z, x, y, m) }
func laneMulConst(z, x *Lanes, y *LaneConst, m *laneMod) {
	kernel(laneMulConstIFMA, laneMulConstGo)(z, x, y, m)
}
func laneAdd(z, x, y *Lanes, m *laneMod) { kernel(laneAddIFMA, laneAddGo)(z, x, y, m) }
func laneAddConst(z, x *Lanes, y *LaneConst, m *laneMod) {
	kernel(laneAddConstIFMA, laneAddConstGo)(z, x, y, m)
}
func laneSub(z, x, y *Lanes, m *laneMod) { kernel(laneSubIFMA, laneSubGo)(z, x, y, m) }

// col returns lane j of x.
func (x *Lanes) col(j int) LaneConst {
	var c LaneConst
	for i := range c {
		c[i] = x[i][j]
	}
	return c
}

// laneStore writes t mod p to lane j of z, for t in 52-bit limbs and
// below 2p: t − p where that does not borrow, t otherwise.
func laneStore(z *Lanes, j int, t *LaneConst, m *laneMod) {
	var d LaneConst
	var borrow uint64
	for i := range d {
		s := t[i] - m.p[i] - borrow
		d[i], borrow = s&laneMask, s>>63
	}
	keep := -borrow
	for i := range d {
		z[i][j] = t[i]&keep | d[i]&^keep
	}
}

// laneMulWord is Montgomery multiplication in radix 2⁵², the IFMA
// kernel's rounds: t = (t + x·y[i] + q·p)/2⁵² with q = t₀·(−p⁻¹) mod 2⁵²,
// carries propagated as they arise. t < 2p after every round, because
// x, y < p < R'/4.
func laneMulWord(z *Lanes, j int, x, y *LaneConst, m *laneMod) {
	var t LaneConst
	for i := range y {
		q := (t[0] + x[0]*y[i]) * m.m & laneMask
		var c uint64
		for k := range t {
			h1, l1 := bits.Mul64(x[k], y[i])
			h2, l2 := bits.Mul64(q, m.p[k])
			s := t[k] + l1&laneMask + l2&laneMask + c
			c = s>>52 + (h1<<12 | l1>>52) + (h2<<12 | l2>>52)
			if k > 0 {
				t[k-1] = s & laneMask
			}
		}
		t[laneLimbs-1] = c
	}
	laneStore(z, j, &t, m)
}

func laneMulGo(z, x, y *Lanes, m *laneMod) {
	for j := range LaneWidth {
		a, b := x.col(j), y.col(j)
		laneMulWord(z, j, &a, &b, m)
	}
}

func laneMulConstGo(z, x *Lanes, y *LaneConst, m *laneMod) {
	for j := range LaneWidth {
		a := x.col(j)
		laneMulWord(z, j, &a, y, m)
	}
}

// laneAddWord stores x + y mod p in lane j of z.
func laneAddWord(z *Lanes, j int, x, y *LaneConst, m *laneMod) {
	var t LaneConst
	var c uint64
	for i := range t {
		s := x[i] + y[i] + c
		t[i], c = s&laneMask, s>>52
	}
	laneStore(z, j, &t, m)
}

func laneAddGo(z, x, y *Lanes, m *laneMod) {
	for j := range LaneWidth {
		a, b := x.col(j), y.col(j)
		laneAddWord(z, j, &a, &b, m)
	}
}

func laneAddConstGo(z, x *Lanes, y *LaneConst, m *laneMod) {
	for j := range LaneWidth {
		a := x.col(j)
		laneAddWord(z, j, &a, y, m)
	}
}

// laneSubGo sets z = x − y lane by lane, adding p back where the
// difference borrowed.
func laneSubGo(z, x, y *Lanes, m *laneMod) {
	for j := range LaneWidth {
		a, b := x.col(j), y.col(j)
		var d LaneConst
		var borrow uint64
		for i := range d {
			s := a[i] - b[i] - borrow
			d[i], borrow = s&laneMask, s>>63
		}
		var c uint64
		for i := range d {
			s := d[i] + m.p[i]&-borrow + c
			z[i][j], c = s&laneMask, s>>52
		}
	}
}
