package ff

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// laneFields returns the fields of diffFields the lane kernel serves, at
// most 8 limbs: the 1-limb prime, the test preset (5), bf80 (8, all 512
// bits) and the 480-bit prime (8, with slack).
func laneFields(t testing.TB) []*Field {
	var fs []*Field
	for _, f := range diffFields(t) {
		if f.n <= laneMaxLimbs {
			fs = append(fs, f)
		}
	}
	return fs
}

// laneOperands returns the edge values the kernel's carries and its final
// subtraction meet — 0, 1, p−1, all ones in every 52-bit limb below the
// top one, all ones in every 64-bit limb, reduced — then random values.
func laneOperands(f *Field, rng *mrand.Rand, n int) []*big.Int {
	p := f.P()
	one := big.NewInt(1)
	ones := func(bits uint) *big.Int {
		v := new(big.Int).Lsh(one, bits)
		return v.Mod(v.Sub(v, one), p)
	}
	ops := []*big.Int{big.NewInt(0), one, new(big.Int).Sub(p, one), ones(52 * (laneLimbs - 1)), ones(uint(64 * f.n))}
	for range n {
		ops = append(ops, new(big.Int).Rand(rng, p))
	}
	return ops
}

// rawLanes returns the lane vector whose lane j holds the integer vs[j] in
// 52-bit limbs (lane value vs[j]·R'⁻¹).
func rawLanes(vs []*big.Int) *Lanes {
	var l Lanes
	for j, v := range vs {
		c := split52(v)
		for i := range c {
			l[i][j] = c[i]
		}
	}
	return &l
}

// laneInts returns the integers the lanes of l hold.
func laneInts(l *Lanes) []*big.Int {
	out := make([]*big.Int, LaneWidth)
	for j := range out {
		v := new(big.Int)
		for i := laneLimbs - 1; i >= 0; i-- {
			v.Lsh(v, 52).Or(v, new(big.Int).SetUint64(l[i][j]))
		}
		out[j] = v
	}
	return out
}

// laneOp is one lane kernel operation and its math/big model on the
// integers the lanes hold (rInv = R'⁻¹ mod p).
type laneOp struct {
	name string
	run  func(f *Field, z, x, y *Lanes)
	want func(x, y, rInv, p *big.Int) *big.Int
}

var laneOps = []laneOp{
	{"mul", func(f *Field, z, x, y *Lanes) { f.LaneMul(z, x, y) },
		func(x, y, rInv, p *big.Int) *big.Int { v := new(big.Int).Mul(x, y); return v.Mod(v.Mul(v, rInv), p) }},
	{"add", func(f *Field, z, x, y *Lanes) { f.LaneAdd(z, x, y) },
		func(x, y, _, p *big.Int) *big.Int { v := new(big.Int).Add(x, y); return v.Mod(v, p) }},
	{"sub", func(f *Field, z, x, y *Lanes) { f.LaneSub(z, x, y) },
		func(x, y, _, p *big.Int) *big.Int { v := new(big.Int).Sub(x, y); return v.Mod(v, p) }},
}

// checkLaneOps runs every lane operation on the eight operand pairs xs[j],
// ys[j] — into a fresh destination, into x, into y, and with x as both
// operands — and the broadcast forms with ys[0], against math/big.
func checkLaneOps(t *testing.T, f *Field, xs, ys []*big.Int) {
	t.Helper()
	p := f.P()
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 52*laneLimbs), p)
	check := func(what string, got *Lanes, xs, ys []*big.Int, want func(x, y, rInv, p *big.Int) *big.Int) {
		t.Helper()
		for j, g := range laneInts(got) {
			if w := want(xs[j], ys[j], rInv, p); g.Cmp(w) != 0 {
				t.Fatalf("p=%d bits: %s lane %d of (%v, %v) = %v, want %v", p.BitLen(), what, j, xs[j], ys[j], g, w)
			}
		}
	}
	bcast := make([]*big.Int, LaneWidth)
	for j := range bcast {
		bcast[j] = ys[0]
	}
	for _, op := range laneOps {
		x, y := rawLanes(xs), rawLanes(ys)
		var z Lanes
		op.run(f, &z, x, y)
		check(op.name, &z, xs, ys, op.want)
		op.run(f, x, x, y)
		check(op.name+" into x", x, xs, ys, op.want)
		x = rawLanes(xs)
		op.run(f, y, x, y)
		check(op.name+" into y", y, xs, ys, op.want)
		op.run(f, x, x, x)
		check(op.name+" of x with itself", x, xs, xs, op.want)
	}
	c := split52(ys[0])
	var z Lanes
	f.LaneMulConst(&z, rawLanes(xs), (*LaneConst)(&c))
	check("mul by a constant", &z, xs, bcast, laneOps[0].want)
	f.LaneAddConst(&z, rawLanes(xs), (*LaneConst)(&c))
	check("add of a constant", &z, xs, bcast, laneOps[1].want)
}

// TestLaneKernel cross-checks each lane kernel the build and host have —
// the AVX-512 IFMA assembly, the portable Go kernel under -tags lanego —
// against math/big, the two against each other limb for limb where both
// run, and the exact-form round trip against the scalar Montgomery
// multiplication — montMul8Go on the 8-limb fields —, on edge and random
// operands. With the kernels forced off no field reports lanes; on a
// default build without AVX-512 IFMA that is the only state, and the
// test says so.
func TestLaneKernel(t *testing.T) {
	t.Logf("AVX-512 IFMA lane kernel available: %v; portable Go kernel linked: %v", useIFMA, laneGo)
	for name, force := range laneKernels {
		t.Run(name, func(t *testing.T) {
			defer force()()
			for _, f := range diffFields(t) {
				if want := name != "off" && f.n <= laneMaxLimbs; f.HasLanes() != want {
					t.Fatalf("%d-limb field: HasLanes() = %v with the kernel %s", f.n, f.HasLanes(), name)
				}
			}
			if name == "off" {
				return
			}
			rng := mrand.New(mrand.NewSource(39))
			for _, f := range laneFields(t) {
				ops := laneOperands(f, rng, 27)
				for k := 0; k+2*LaneWidth <= len(ops); k += LaneWidth {
					checkLaneOps(t, f, ops[k:k+LaneWidth], ops[k+LaneWidth:k+2*LaneWidth])
				}
				checkLaneOps(t, f, ops[:LaneWidth], ops[:LaneWidth])
				checkLaneRoundTrip(t, f, ops[:LaneWidth], ops[LaneWidth:2*LaneWidth])
			}
		})
	}
	goKernel, hasGo := laneKernels["go"]
	ifmaKernel, hasIFMA := laneKernels["ifma"]
	if hasGo && hasIFMA {
		rng := mrand.New(mrand.NewSource(41))
		for _, f := range laneFields(t) {
			ops := laneOperands(f, rng, 11)
			xs, ys := ops[:LaneWidth], ops[LaneWidth:2*LaneWidth]
			restore := goKernel()
			want := laneOutputs(f, xs, ys)
			restore()
			restore = ifmaKernel()
			got := laneOutputs(f, xs, ys)
			restore()
			if got != want {
				t.Fatalf("p=%d bits: the Go and IFMA kernels disagree", f.p.BitLen())
			}
		}
	}
	if len(laneKernels) == 1 {
		t.Skip("no lane kernel on this host or build: only the forced-off dispatch was checked")
	}
}

// laneOutputs runs the five kernel operations on the operand lanes xs,
// ys (and ys[0] as the broadcast constant) under the current dispatch.
func laneOutputs(f *Field, xs, ys []*big.Int) [5]Lanes {
	var out [5]Lanes
	x, y := rawLanes(xs), rawLanes(ys)
	c := split52(ys[0])
	f.LaneMul(&out[0], x, y)
	f.LaneMulConst(&out[1], x, &c)
	f.LaneAdd(&out[2], x, y)
	f.LaneAddConst(&out[3], x, &c)
	f.LaneSub(&out[4], x, y)
	return out
}

// checkLaneRoundTrip moves Elements into exact lane form and back around
// a lane product, which must equal the scalar product (and montMul8Go on
// 8 limbs), and inverts the lanes with one shared inversion, a zero lane
// giving zero.
func checkLaneRoundTrip(t *testing.T, f *Field, xs, ys []*big.Int) {
	t.Helper()
	var x, y, z Lanes
	var ex, ey [LaneWidth]Element
	for j := range ex {
		ex[j], ey[j] = f.NewElement(xs[j]), f.NewElement(ys[j])
		x.SetRaw(j, &ex[j])
		y.SetRaw(j, &ey[j])
	}
	var back [LaneWidth]Element
	f.LaneExact(&x, &x)
	f.LaneElements(&back, &x)
	for j := range back {
		if !back[j].Equal(ex[j]) {
			t.Fatalf("p=%d bits: lane %d round trip %v, want %v", f.p.BitLen(), j, back[j], ex[j])
		}
	}
	f.LaneExact(&y, &y)
	f.LaneMul(&z, &x, &y)
	f.LaneElements(&back, &z)
	for j := range back {
		want := ex[j].Mul(ey[j])
		if f.n == 8 {
			montMul8Go(&want.v, &ex[j].v, &ey[j].v, &f.pl, f.m0)
		}
		if !back[j].Equal(want) {
			t.Fatalf("p=%d bits: lane %d product %v, scalar %v", f.p.BitLen(), j, back[j], want)
		}
	}
	f.LaneInv(&z, &x)
	f.LaneElements(&back, &z)
	zero := x.ZeroBits()
	for j := range back {
		if got := zero[j] == 1; got != ex[j].IsZero() {
			t.Fatalf("lane %d: ZeroBits %d for %v", j, zero[j], ex[j])
		}
		want := f.Zero()
		if !ex[j].IsZero() {
			want = ex[j].Inv()
		}
		if !back[j].Equal(want) {
			t.Fatalf("p=%d bits: lane %d inverse %v, want %v", f.p.BitLen(), j, back[j], want)
		}
	}
}

// FuzzLaneMul drives the lane kernel from raw bytes on the test preset's
// and bf80's moduli: eight pairs of operands cut from the input, reduced
// mod p, against math/big.
func FuzzLaneMul(f *testing.F) {
	fs := diffFields(f)[1:3]
	f.Add(make([]byte, 64))
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = 0xff
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if !fs[0].HasLanes() {
			t.Skip("no lane kernel on this host or build")
		}
		for _, fld := range fs {
			p := fld.P()
			var xs, ys []*big.Int
			for j := range 2 * LaneWidth {
				b := make([]byte, fld.byteLen)
				for i := range b {
					if len(raw) > 0 {
						b[i] = raw[(j*len(b)+i)%len(raw)] ^ byte(j)
					}
				}
				v := new(big.Int).Mod(new(big.Int).SetBytes(b), p)
				if j < LaneWidth {
					xs = append(xs, v)
				} else {
					ys = append(ys, v)
				}
			}
			checkLaneOps(t, fld, xs, ys)
		}
	})
}
