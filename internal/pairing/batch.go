package pairing

import (
	"slices"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
	"mwskit/internal/obsv"
)

// laneCrossover is the fewest points a lane batch takes: below it the
// Pair loop is faster. A bf80 lane batch costs about 1.9 PrecompPair
// whether one lane or eight is busy, and whether its lanes share one
// precomputation or gather up to eight, so one point reads 1.88× its Pair
// and two read 0.95× theirs (BenchmarkLaneBatch against
// BenchmarkPrecompPair at -cpu 1, DESIGN.md §9).
const laneCrossover = 2

// PairBatch sets out[i] = pres[i].Pair(qs[i]) for every i, bit for bit.
// The precomputations come from one Pairing, and any of them may repeat.
// Where the field has the lane kernel (ff.Field.HasLanes), each run of up
// to ff.LaneWidth points in order, if it holds at least laneCrossover of
// them and a precomputation that does not pair to 1, runs its Miller
// loops and final exponentiations side by side, one point a lane;
// otherwise PairBatch is the Pair loop. A run whose points share one
// precomputation (a search's trapdoor) reads each line as a broadcast
// constant; a run over several (a page's keys) gathers each lane's line
// by lane index. The lanes follow the public digits of q and bits of the
// final exponent, the public count of points and which of them share a
// precomputation, never a point's or a line's value: a point at infinity,
// a precomputation that pairs to 1, an unused lane and an accumulator
// with a zero coordinate run the same instructions as any other and are
// folded in by a mask at the end. obsv counts one pairing per point.
func PairBatch(pres []*G1Precomp, qs []ec.Point, out []GT) {
	if len(pres) != len(qs) || len(qs) != len(out) {
		panic("pairing: PairBatch operand length mismatch")
	}
	for len(qs) > 0 {
		n := min(len(qs), ff.LaneWidth)
		live := slices.IndexFunc(pres[:n], func(pre *G1Precomp) bool { return !pre.one })
		if n >= laneCrossover && live >= 0 && pres[live].e.Curve.F.HasLanes() {
			pairLanes(pres[live], pres[:n], qs[:n], out[:n])
		} else {
			for i := range n {
				out[i] = pres[i].Pair(qs[i])
			}
		}
		pres, qs, out = pres[n:], qs[n:], out[n:]
	}
}

// laneLines returns the precomputation's lines as lane constants,
// broadcast or gathered by pairLanes, built on first use: per step the
// tangent's a and b, then the chord's where there is one. They are raw
// copies (ff.Element.LaneConst), worth the coefficient times one fixed
// F_p scale; y_Q enters with the same scale and x_Q exactly, so every
// line value — and the accumulator — is off by an F_p factor the final
// exponentiation kills. 214 bf80 lines take 34 KB.
func (pre *G1Precomp) laneLines() []ff.LaneConst {
	pre.laneOnce.Do(func() {
		n := 0
		for s := range pre.steps {
			n += 2
			if pre.steps[s].hasChord {
				n += 2
			}
		}
		ls := make([]ff.LaneConst, 0, n)
		for s := range pre.steps {
			st := &pre.steps[s]
			ls = append(ls, st.tan.a.LaneConst(), st.tan.b.LaneConst())
			if st.hasChord {
				ls = append(ls, st.chord.a.LaneConst(), st.chord.b.LaneConst())
			}
		}
		pre.lanes = ls
	})
	return pre.lanes
}

// laneConsts returns the Lucas ladder's constants 2 and 1/2 in exact lane
// form, built on first use.
func (e *Pairing) laneConsts() (two, half *ff.Lanes) {
	e.laneOnce.Do(func() {
		f := e.Curve.F
		for j := range ff.LaneWidth {
			e.laneTwo.SetRaw(j, &e.two)
			e.laneHalf.SetRaw(j, &e.half)
		}
		f.LaneExact(&e.laneTwo, &e.laneTwo)
		f.LaneExact(&e.laneHalf, &e.laneHalf)
	})
	return &e.laneTwo, &e.laneHalf
}

// pairLanes is PairBatch's lane path for 1 ≤ len(qs) ≤ ff.LaneWidth
// points, qs[j] against pres[j]: miller lane by lane, then finalExpLanes.
// live is one of pres that does not pair to 1.
func pairLanes(live *G1Precomp, pres []*G1Precomp, qs []ec.Point, out []GT) {
	e := live.e
	f := e.Curve.F
	// Each lane's lines: its own precomputation's, or live's for an unused
	// lane and one whose precomputation pairs to 1. Those keep Q = (0, 0),
	// like Q = ∞ (whose coordinates have no field): every line value is
	// then in F_p, so the accumulator has no imaginary part and
	// finalExpLanes gives the lane 1, Pair's value. x_Q exact; y_Q, like
	// the lines, a raw copy.
	lines := live.laneLines()
	var src [ff.LaneWidth][]ff.LaneConst
	shared := true
	var x, y, ySq ff.Lanes
	for j := range src {
		src[j] = lines
		if j >= len(qs) {
			continue
		}
		obsv.AddPairing()
		if pres[j].one {
			continue
		}
		src[j], shared = pres[j].laneLines(), shared && pres[j] == live
		if !qs[j].Inf {
			x.SetRaw(j, &qs[j].X)
			y.SetRaw(j, &qs[j].Y)
		}
	}
	f.LaneExact(&x, &x)
	f.LaneMul(&ySq, &y, &y)
	// lineAt sets z = a + b·x_Q for the line whose coefficients are at k
	// and k+1: broadcast where the lanes share their lines, else gathered.
	var ca, cb ff.Lanes
	lineAt := func(z *ff.Lanes, k int) {
		if shared {
			f.LaneMulConst(z, &x, &lines[k+1])
			f.LaneAddConst(z, z, &lines[k])
			return
		}
		for j := range src {
			ca.SetConst(j, &src[j][k])
			cb.SetConst(j, &src[j][k+1])
		}
		f.LaneMul(z, &x, &cb)
		f.LaneAdd(z, z, &ca)
	}

	// The Miller loop: millerStep.at and the F_p² square and Karatsuba
	// product of miller, on lanes.
	var fa, fb, va, vb, t, u ff.Lanes
	one := f.One()
	for j := range ff.LaneWidth {
		fa.SetRaw(j, &one)
	}
	k := 0
	for s := range live.steps {
		f.LaneAdd(&t, &fa, &fb)
		f.LaneSub(&u, &fa, &fb)
		f.LaneMul(&fb, &fa, &fb)
		f.LaneAdd(&fb, &fb, &fb)
		f.LaneMul(&fa, &t, &u)
		lineAt(&va, k)
		k += 2
		vi := &y
		if live.steps[s].hasChord {
			lineAt(&t, k)
			k += 2
			f.LaneAdd(&vb, &va, &t)
			f.LaneMul(&vb, &vb, &y)
			f.LaneMul(&va, &va, &t)
			f.LaneSub(&va, &va, &ySq)
			vi = &vb
		}
		f.LaneMul(&t, &fa, &va)
		f.LaneMul(&u, &fb, vi)
		f.LaneAdd(&fb, &fa, &fb)
		f.LaneAdd(&va, &va, vi)
		f.LaneMul(&fb, &fb, &va)
		f.LaneSub(&fb, &fb, &t)
		f.LaneSub(&fb, &fb, &u)
		f.LaneSub(&fa, &t, &u)
	}

	var res [ff.LaneWidth]ff.E2
	e.finalExpLanes(&res, &fa, &fb)
	for j := range qs {
		out[j] = GT{v: res[j]}
	}
}

// finalExpLanes sets out[j] = finalExp(f_j) for the accumulator f_j in
// lane j of (fa, fb), bit for bit: finalExpBy's ladder on lanes. The lanes
// may hold f_j times any one F_p scale, which cancels in Re(g) and
// 1/(2·Im(g)); those come out exact. A lane with a zero coordinate, where
// Im(g) = 0, runs the ladder like the others and then takes
// finalExpNoImag's value by a mask: −1 for f ∈ i·F_p* under an odd
// exponent, else 1.
func (e *Pairing) finalExpLanes(out *[ff.LaneWidth]ff.E2, fa, fb *ff.Lanes) {
	f := e.Curve.F
	two, half := e.laneConsts()
	var zero, t, u, im, re, n, inv, a, inv2b, v0, v1 ff.Lanes
	f.LaneMul(&im, fa, fb)
	f.LaneAdd(&im, &im, &im)
	f.LaneSub(&im, &zero, &im) // −2xy
	f.LaneAdd(&t, fa, fb)
	f.LaneSub(&u, fa, fb)
	f.LaneMul(&re, &t, &u) // x² − y²
	f.LaneMul(&n, fb, fb)
	f.LaneAdd(&n, &n, &n)
	f.LaneAdd(&n, &re, &n) // x² + y²
	f.LaneAdd(&t, &im, &im)
	f.LaneMul(&inv, &n, &t)
	f.LaneInv(&inv, &inv) // 1/(2·N²·Im(g)), 0 where Im(g) = 0
	f.LaneMul(&a, &inv, &t)
	f.LaneMul(&a, &re, &a) // Re(g)
	f.LaneMul(&inv2b, &n, &n)
	f.LaneMul(&inv2b, &inv2b, &inv) // 1/(2·Im(g))
	f.LaneAdd(&u, &a, &a)           // V_1
	v0, v1 = *two, u
	k := e.pPlus1DivQ
	for i := k.BitLen() - 1; i >= 0; i-- {
		if k.Bit(i) == 1 {
			f.LaneMul(&v0, &v0, &v1)
			f.LaneSub(&v0, &v0, &u)
			f.LaneMul(&v1, &v1, &v1)
			f.LaneSub(&v1, &v1, two)
		} else {
			f.LaneMul(&v1, &v0, &v1)
			f.LaneSub(&v1, &v1, &u)
			f.LaneMul(&v0, &v0, &v0)
			f.LaneSub(&v0, &v0, two)
		}
	}
	var ra, rb [ff.LaneWidth]ff.Element
	f.LaneMul(&t, &v0, half)
	f.LaneElements(&ra, &t)
	f.LaneMul(&a, &a, &v0)
	f.LaneSub(&a, &a, &v1)
	f.LaneMul(&a, &a, &inv2b)
	f.LaneElements(&rb, &a)

	aZero, bZero, imZero := fa.ZeroBits(), fb.ZeroBits(), im.ZeroBits()
	one := f.E2One()
	minus := one.Neg()
	odd := uint64(k.Bit(0))
	for j := range out {
		var noImag ff.E2
		noImag.SetSelect((1^(aZero[j]&bZero[j]))&aZero[j]&odd, &minus, &one)
		out[j].A, out[j].B = ra[j], rb[j]
		out[j].SetSelect(imZero[j], &noImag, &out[j])
	}
}
