package ec

import (
	"fmt"
	"math/big"
	"testing"
	"time"

	"mwskit/internal/ff"
)

// The in-place Jacobian kernels against the affine group law, exhaustively
// on the q = 263 curve (p = 1051, 1052 points): every kernel, every operand
// pair of G1 including ∞, P + P and P + (−P), in every aliasing shape the
// ladders use. The affine Add/Double share no code with the kernels.

// g1Multiples returns [0·g, 1·g, …, (q−1)·g] by affine addition.
func g1Multiples(t *testing.T, c *Curve) []Point {
	t.Helper()
	g := subgroupGen(t, c)
	pts := make([]Point, c.Q.Int64())
	pts[0] = c.Infinity()
	for i := 1; i < len(pts); i++ {
		pts[i] = c.Add(pts[i-1], g)
	}
	return pts
}

// jacOf returns p in a Jacobian representation with Z = lambda ≠ 1, so the
// kernels' Z-dependent terms are exercised; ∞ gets a non-canonical (X, Y).
func jacOf(c *Curve, p Point, lambda int64) jacPoint {
	l := c.F.FromInt64(lambda)
	if p.Inf {
		return jacPoint{x: l, y: l.Double(), z: c.F.Zero()}
	}
	l2 := l.Square()
	return jacPoint{x: p.X.Mul(l2), y: p.Y.Mul(l2).Mul(l), z: l}
}

// checkAdders runs both addition flavors on j + k into a fresh r, into j
// and into k, and fails unless every result is want.
func checkAdders(t testing.TB, c *Curve, what string, j, k jacPoint, want Point) {
	t.Helper()
	for name, add := range map[string]func(r, j, k *jacPoint){"jacAdd": c.jacAdd, "jacAddSecret": jacAddSecret} {
		var fresh jacPoint
		add(&fresh, &j, &k)
		rj, rk := j, k
		add(&rj, &rj, &k)
		add(&rk, &j, &rk)
		for shape, r := range map[string]*jacPoint{"fresh r": &fresh, "r = j": &rj, "r = k": &rk} {
			if got := c.fromJacobian(r); !got.Equal(want) {
				t.Fatalf("%s(%s), %s: %v, want %v", name, what, shape, got, want)
			}
		}
	}
}

func TestJacAddExhaustive(t *testing.T) {
	c := smallCurve(t)
	pts := g1Multiples(t, c)
	q := len(pts)
	for i := range pts {
		for k := range pts {
			want := pts[(i+k)%q]
			if aff := c.Add(pts[i], pts[k]); !aff.Equal(want) {
				t.Fatalf("affine %d·g + %d·g ≠ %d·g", i, k, (i+k)%q)
			}
			a, b := jacOf(c, pts[i], int64(2+i)), jacOf(c, pts[k], int64(3+2*k))
			checkAdders(t, c, fmt.Sprintf("%d·g, %d·g", i, k), a, b, want)
		}
		// r = r + r, all three the same point.
		for name, add := range map[string]func(r, j, k *jacPoint){"jacAdd": c.jacAdd, "jacAddSecret": jacAddSecret} {
			r := jacOf(c, pts[i], int64(2+i))
			add(&r, &r, &r)
			if got, want := c.fromJacobian(&r), pts[2*i%q]; !got.Equal(want) {
				t.Fatalf("%s(r, r, r) at %d·g: %v, want %v", name, i, got, want)
			}
		}
	}
}

// TestJacAddAffineExhaustive covers the mixed addition on exactly its
// domain: j ≠ ∞, k affine (Z = 1) and finite, j ≠ ±k.
func TestJacAddAffineExhaustive(t *testing.T) {
	c := smallCurve(t)
	pts := g1Multiples(t, c)
	q := len(pts)
	for i := 1; i < q; i++ {
		for k := 1; k < q; k++ {
			if i == k || i+k == q {
				continue
			}
			a, b := jacOf(c, pts[i], int64(2+i)), c.toJacobian(pts[k])
			var fresh jacPoint
			jacAddAffine(&fresh, &a, &b)
			jacAddAffine(&a, &a, &b)
			for shape, r := range map[string]*jacPoint{"fresh r": &fresh, "r = j": &a} {
				if got, want := c.fromJacobian(r), pts[(i+k)%q]; !got.Equal(want) {
					t.Fatalf("jacAddAffine(%d·g, %d·g), %s: %v, want %v", i, k, shape, got, want)
				}
			}
		}
	}
}

// TestJacDoubleExhaustive doubles every point of E(F_p) — G1, the cosets
// outside it, the 2-torsion point (0, 0) whose Y is zero, and ∞ — fresh and
// in place, against the affine Double.
func TestJacDoubleExhaustive(t *testing.T) {
	c := smallCurve(t)
	all := []Point{c.Infinity()}
	for x := int64(0); x < smallP.Int64(); x++ {
		xe := c.F.FromInt64(x)
		y, ok := xe.Square().Mul(xe).Add(xe).Sqrt()
		if !ok {
			continue
		}
		all = append(all, Point{X: xe, Y: y})
		if !y.IsZero() {
			all = append(all, Point{X: xe, Y: y.Neg()})
		}
	}
	if want := int(smallP.Int64()) + 1; len(all) != want {
		t.Fatalf("enumerated %d points, the curve has %d", len(all), want)
	}
	for i, p := range all {
		j := jacOf(c, p, int64(1+i%1000))
		var fresh jacPoint
		jacDouble(&fresh, &j)
		jacDouble(&j, &j)
		for shape, r := range map[string]*jacPoint{"fresh r": &fresh, "r = j": &j} {
			if got, want := c.fromJacobian(r), c.Double(p); !got.Equal(want) {
				t.Fatalf("jacDouble(%v), %s: %v, want %v", p, shape, got, want)
			}
		}
	}
}

// TestLaddersExhaustive runs the table builder, the masked selection and the
// three multipliers that stand on the kernels over every base of G1 and
// every scalar in [0, q), against repeated affine addition.
func TestLaddersExhaustive(t *testing.T) {
	c := smallCurve(t)
	pts := g1Multiples(t, c)
	q := len(pts)
	for b := 1; b < q; b++ {
		base := pts[b]
		var tbl [combRow]jacPoint
		jb := jacOf(c, base, int64(7+b))
		c.oddMultiples(tbl[:], &jb)
		for j := range tbl {
			want := pts[b*(2*j+1)%q]
			if got := c.fromJacobian(&tbl[j]); !got.Equal(want) {
				t.Fatalf("oddMultiples(%d·g)[%d] = %v, want %v", b, j, got, want)
			}
			for _, sign := range []int64{1, -1} {
				var sel jacPoint
				selectSigned(&sel, tbl[:], sign*int64(2*j+1))
				w := want
				if sign < 0 {
					w = want.Neg()
				}
				if got := c.fromJacobian(&sel); !got.Equal(w) {
					t.Fatalf("selectSigned(%d·g, %d) = %v, want %v", b, sign*int64(2*j+1), got, w)
				}
			}
		}
		for k := 0; k < q; k++ {
			kb, want := big.NewInt(int64(k)), pts[b*k%q]
			if got := c.scalarMultBinary(base, kb); !got.Equal(want) {
				t.Fatalf("scalarMultBinary(%d·g, %d) = %v, want %v", b, k, got, want)
			}
			if got := c.ScalarMult(base, kb); !got.Equal(want) {
				t.Fatalf("ScalarMult(%d·g, %d) = %v, want %v", b, k, got, want)
			}
			if got := c.ScalarMultSecret(base, scalarOf(t, c, kb)); !got.Equal(want) {
				t.Fatalf("ScalarMultSecret(%d·g, %d) = %v, want %v", b, k, got, want)
			}
		}
	}
}

// affineMult is k·p by double-and-add on the affine group law alone.
func affineMult(c *Curve, p Point, k uint16) Point {
	r := c.Infinity()
	for i := 15; i >= 0; i-- {
		r = c.Double(r)
		if k>>uint(i)&1 == 1 {
			r = c.Add(r, p)
		}
	}
	return r
}

// FuzzJacKernels is the exhaustive test's shape on the multi-limb widths
// it cannot enumerate (the test and bf80 presets): two small multiples of a
// generator, the second optionally negated, in fuzzer-chosen Jacobian
// scalings, through every kernel and aliasing shape against the affine law.
func FuzzJacKernels(f *testing.F) {
	curves := testCurves(f)
	gens := map[string]Point{}
	for name, c := range curves {
		g, err := c.HashToSubgroup("ec-fuzz", []byte(name))
		if err != nil {
			f.Fatal(err)
		}
		gens[name] = g
	}
	f.Add(uint16(3), uint16(7), false, int64(2), int64(5))
	f.Add(uint16(1), uint16(1), false, int64(9), int64(4)) // P + P
	f.Add(uint16(6), uint16(6), true, int64(3), int64(8))  // P + (−P)
	f.Add(uint16(0), uint16(5), false, int64(1), int64(1)) // ∞ + Q
	f.Add(uint16(5), uint16(0), true, int64(7), int64(1))  // P + ∞
	f.Fuzz(func(t *testing.T, a, b uint16, neg bool, la, lb int64) {
		for name, c := range curves {
			p, q := affineMult(c, gens[name], a), affineMult(c, gens[name], b)
			if neg {
				q = q.Neg()
			}
			if c.F.FromInt64(la).IsZero() || c.F.FromInt64(lb).IsZero() {
				return // Z = 0 would be another point
			}
			want := c.Add(p, q)
			checkAdders(t, c, fmt.Sprintf("%s: %d·g, %d·g, neg %v", name, a, b, neg), jacOf(c, p, la), jacOf(c, q, lb), want)
			if !p.Inf && !q.Inf && !p.Equal(q) && !p.Equal(q.Neg()) {
				j, k := jacOf(c, p, la), c.toJacobian(q)
				jacAddAffine(&j, &j, &k)
				if got := c.fromJacobian(&j); !got.Equal(want) {
					t.Fatalf("%s: jacAddAffine(%d·g, %d·g, neg %v): %v, want %v", name, a, b, neg, got, want)
				}
			}
			j := jacOf(c, p, la)
			jacDouble(&j, &j)
			if got, want := c.fromJacobian(&j), c.Double(p); !got.Equal(want) {
				t.Fatalf("%s: jacDouble(%d·g): %v, want %v", name, a, got, want)
			}
		}
	})
}

var sinkJac jacPoint

// BenchmarkJacDouble is one in-place doubling on the bf80 curve: the unit
// the public ladder (the decoders' order-q check) spends ≈ 80 % of its time
// in.
func BenchmarkJacDouble(b *testing.B) {
	c, g := benchCurve(b)
	j := c.toJacobian(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jacDouble(&j, &j)
	}
	sinkJac = j
}

// BenchmarkSubgroupCheck is the exact order-q check every decoder of a
// second pairing argument runs per message or tag (ROADMAP 1(b): no bench/
// rung times it).
func BenchmarkSubgroupCheck(b *testing.B) {
	c, g := benchCurve(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.ScalarBaseOrderCheck(g) {
			b.Fatal("generator outside G1")
		}
	}
}

var sinkElem ff.Element

// TestKernelOverheadBound keeps the 136-byte Element copies from coming
// back unnoticed: one jacDouble may cost at most 1.4 × the field operations
// it is made of — nine multiplications, ten additions (doublings included)
// and three subtractions, timed on their own in this process, so host speed
// cancels. Written in place the doubling is within a few per cent of that
// sum; on value-returning arithmetic, where every intermediate is copied
// out and back, it was ≈ 1.8 × (DESIGN.md §9).
func TestKernelOverheadBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing ratio: skipped under -short and -race")
	}
	c := MustCurve(ff.MustField(benchP), benchQ)
	g, err := c.HashToSubgroup("bench", []byte("generator"))
	if err != nil {
		t.Fatal(err)
	}
	x, y, j := g.X, g.Y, c.toJacobian(g)
	kernels := []func(){
		func() { jacDouble(&j, &j) },
		func() { x.SetMul(&x, &y) },
		func() { x.SetAdd(&x, &y) },
		func() { x.SetSub(&x, &y) },
	}
	// Best of interleaved rounds per kernel, so a burst of host noise has to
	// outlast all of them to move the ratio; a ratio over the bound buys two
	// more batches before it fails.
	var ns [4]float64
	var dbl, parts float64
	for batch := 0; batch < 3; batch++ {
		for rep := 0; rep < 9; rep++ {
			for k, f := range kernels {
				const calls = 4000
				start := time.Now()
				for i := 0; i < calls; i++ {
					f()
				}
				if d := float64(time.Since(start).Nanoseconds()) / calls; ns[k] == 0 || d < ns[k] {
					ns[k] = d
				}
			}
		}
		dbl, parts = ns[0], 9*ns[1]+10*ns[2]+3*ns[3]
		t.Logf("jacDouble %.0f ns; SetMul %.1f, SetAdd %.1f, SetSub %.1f ns, 9M + 10A + 3S = %.0f ns: ×%.2f", dbl, ns[1], ns[2], ns[3], parts, dbl/parts)
		if dbl <= 1.4*parts {
			break
		}
	}
	sinkJac, sinkElem = j, x
	if dbl > 1.4*parts {
		t.Fatalf("one jacDouble costs %.0f ns against %.0f ns for its 9M + 10A + 3S: ×%.2f, more than 1.4", dbl, parts, dbl/parts)
	}
}
