package pairing

import (
	"math/big"
	"testing"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
)

// torsionPoint returns q·S for the first on-curve S with x = 1, 2, …
// outside G1: a finite point of order dividing h, with no G1 part.
func torsionPoint(t testing.TB, c *ec.Curve) ec.Point {
	t.Helper()
	for x := int64(1); x < 10000; x++ {
		xe := c.F.FromInt64(x)
		y, ok := xe.Square().Mul(xe).Add(xe).Sqrt()
		if !ok {
			continue
		}
		s, err := c.NewPoint(xe, y)
		if err != nil {
			t.Fatal(err)
		}
		if tors := c.ScalarMult(s, c.Q); !tors.Inf {
			return tors
		}
	}
	t.Fatal("no point of order dividing h found")
	return ec.Point{}
}

// TestFirstArgumentOutsideG1: a finite first argument outside G1 — the
// 2-torsion point (0, 0), a point q·S of order dividing h, and G + q·S —
// neither panics nor pairs to anything but 1, through G1Precomp's Pair,
// the one-shot Pair and a PairProduct term, on every preset. On the two
// toy curves of refpair_test.go the walk's mask is
// checked on every finite point: it fires exactly outside G1, and
// PairsToOne, which peks.NewTester reads as a trapdoor's order check,
// reports it.
func TestFirstArgumentOutsideG1(t *testing.T) {
	for name, sys := range presetSystems(t) {
		c := sys.Curve
		g := sys.G1()
		tors := torsionPoint(t, c)
		two, err := c.NewPoint(c.F.Zero(), c.F.Zero())
		if err != nil {
			t.Fatal(err)
		}
		r := hashedCurvePoint(t, c, 0)
		want := sys.Pair(g, g)
		for what, p := range map[string]ec.Point{"(0, 0)": two, "q·S": tors, "G + q·S": c.Add(g, tors)} {
			pre := sys.G1Precomp(p)
			if !pre.PairsToOne() || !pre.Pair(g).IsOne() || !pre.Pair(r).IsOne() || !sys.Pair(p, g).IsOne() {
				t.Errorf("%s: a first argument %s pairs to something other than 1", name, what)
			}
			if got := sys.PairProduct([]*G1Precomp{pre, sys.G1Lines()}, []ec.Point{g, g}); !got.Equal(want) {
				t.Errorf("%s: a PairProduct term over %s is not the unit factor", name, what)
			}
		}
	}
	for _, p := range []int64{1051, 6311} {
		c := ec.MustCurve(ff.MustField(big.NewInt(p)), big.NewInt(263))
		e := New(c)
		g, err := c.HashToSubgroup("refpair", []byte("gen"))
		if err != nil {
			t.Fatal(err)
		}
		outside := 0
		for _, pt := range allFinitePoints(t, c) {
			inG1 := c.ScalarMult(pt, c.Q).Inf
			if !inG1 {
				outside++
			}
			if pre := e.G1Precomp(pt); pre.Pair(g).IsOne() == inG1 || pre.PairsToOne() == inG1 {
				t.Fatalf("p = %d: first argument %v (in G1: %v) pairs to 1 = %v against the generator, PairsToOne %v",
					p, pt, inG1, pre.Pair(g).IsOne(), pre.PairsToOne())
			}
		}
		if want := int(p+1) - 263; outside != want {
			t.Fatalf("p = %d: %d finite points outside G1, want %d", p, outside, want)
		}
	}
}
