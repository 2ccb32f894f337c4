package ec

import (
	"crypto/rand"
	"math/big"
	"testing"

	"mwskit/internal/ff"
)

// The field and subgroup order of pairing.ParamsTest (257/128-bit); the
// bf80 pair is benchP/benchQ in bench_test.go.
var (
	presetTestP, _ = new(big.Int).SetString("146243787580160607335409866087352920027733935707104342391904050466984690923907", 10)
	presetTestQ, _ = new(big.Int).SetString("295790843914753428982384584317181214427", 10)
)

// testCurves returns the curves the scalar and comb tests run on: the
// q = 263 curve and the two preset sizes the daemons run.
func testCurves(t testing.TB) map[string]*Curve {
	t.Helper()
	return map[string]*Curve{
		"q263": smallCurve(t),
		"test": MustCurve(ff.MustField(presetTestP), presetTestQ),
		"bf80": MustCurve(ff.MustField(benchP), benchQ),
	}
}

// combCurves returns a comb over a base of order q on each test curve; on
// q = 263 one window is provably exception-free and the top-window path
// carries the other two additions.
func combCurves(t *testing.T) map[string]*Comb {
	t.Helper()
	out := map[string]*Comb{}
	for name, c := range testCurves(t) {
		out[name] = c.NewComb(subgroupGen(t, c))
	}
	return out
}

// TestCombExhaustive checks Comb.Mul(k) against repeated addition for
// every scalar k in [0, q) and every base of the order-263 subgroup, so each digit pattern meets both the
// mixed addition and the masked one on every point it can meet.
func TestCombExhaustive(t *testing.T) {
	c := smallCurve(t)
	g := subgroupGen(t, c)
	base := g
	for b := int64(1); b < smallQ.Int64(); b++ {
		comb := c.NewComb(base)
		want := c.Infinity()
		for k := int64(0); k < smallQ.Int64(); k++ {
			if got := comb.Mul(scalarOf(t, c, big.NewInt(k))); !got.Equal(want) {
				t.Fatalf("base %d·g: Comb.Mul(%d) = %v, want %v", b, k, got, want)
			}
			want = c.Add(want, base)
		}
		base = c.Add(base, g)
	}
}

// TestCombTableAffine pins what jacAddAffine relies on: every table entry
// has Z = 1, lies on the curve and is the odd multiple of the shifted base
// its index says.
func TestCombTableAffine(t *testing.T) {
	for name, comb := range combCurves(t) {
		c := comb.c
		if n := c.sc.digits * combRow; len(comb.tbl) != n {
			t.Fatalf("%s: table has %d entries, want %d", name, len(comb.tbl), n)
		}
		one := c.F.One()
		for i, e := range comb.tbl {
			if !e.z.Equal(one) {
				t.Fatalf("%s: entry %d has Z ≠ 1", name, i)
			}
			p := Point{X: e.x, Y: e.y}
			if !c.IsOnCurve(p) {
				t.Fatalf("%s: entry %d is off the curve", name, i)
			}
			k := new(big.Int).Lsh(big.NewInt(int64(2*(i%combRow)+1)), uint(secretWindow*(i/combRow)))
			if want := c.ScalarMult(comb.base, k); !p.Equal(want) {
				t.Fatalf("%s: entry %d is not %v·base", name, i, k)
			}
		}
	}
}

// TestCombEdgeScalars runs the scalars where a window's running sum is
// extreme — 0, 1, 2, q−2, q−1, q, (q±1)/2 and 16^m − 1, 16^m, 16^m + 1 for
// every window m, which brackets the last provably safe window — and
// 1 000 random ones against the public-scalar multiplier.
func TestCombEdgeScalars(t *testing.T) {
	for name, comb := range combCurves(t) {
		c := comb.c
		q := c.Q
		off := func(d int64) *big.Int { return new(big.Int).Add(q, big.NewInt(d)) }
		ks := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(2), off(-2), off(-1), q,
			new(big.Int).Rsh(off(-1), 1), new(big.Int).Rsh(off(1), 1)}
		for m := 1; m < c.sc.digits; m++ {
			for _, d := range []int64{-1, 0, 1} {
				ks = append(ks, new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), uint(secretWindow*m)), big.NewInt(d)))
			}
		}
		for i := 0; i < 1000; i++ {
			k, err := rand.Int(rand.Reader, q)
			if err != nil {
				t.Fatal(err)
			}
			ks = append(ks, k)
		}
		for _, k := range ks {
			if got, want := comb.Mul(scalarOf(t, c, k)), c.ScalarMult(comb.base, k); !got.Equal(want) {
				t.Fatalf("%s: Comb.Mul(%v) = %v, want %v", name, k, got, want)
			}
		}
	}
}
