package pairing

import (
	"sync"
	"testing"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
	"mwskit/internal/obsv"
)

// TestPairBatchMatchesPair checks PairBatch against the Pair loop, bit for
// bit, for every batch size from 1 to 17 — across the crossover and two
// lane widths — on every preset, over subgroup points mixed with ∞,
// points with no G1 part and hashed points outside G1, and for
// precomputations over ∞ and over a point outside G1, which pair to 1.
// Where the field has no lane kernel it checks the loop against itself.
func TestPairBatchMatchesPair(t *testing.T) {
	for name, sys := range presetSystems(t) {
		c := sys.Curve
		t.Logf("%s: lane kernel %v", name, c.F.HasLanes())
		g := sys.G1()
		var pts []ec.Point
		for i := range 17 {
			switch i % 6 {
			case 2:
				pts = append(pts, c.Infinity())
			case 4:
				pts = append(pts, hashedCurvePoint(t, c, i))
			case 5:
				pts = append(pts, torsionPoint(t, c))
			default:
				pts = append(pts, c.ScalarMult(g, randBig(t, sys)))
			}
		}
		for _, p := range []ec.Point{c.ScalarMult(g, randBig(t, sys)), c.Infinity(), torsionPoint(t, c)} {
			pre := sys.G1Precomp(p)
			for n := 1; n <= len(pts); n++ {
				out := make([]GT, n)
				pre.PairBatch(pts[:n], out)
				for i, q := range pts[:n] {
					if want := pre.Pair(q); !out[i].Equal(want) {
						t.Fatalf("%s: batch of %d, point %d: PairBatch %x, Pair %x", name, n, i, out[i].Bytes(), want.Bytes())
					}
				}
			}
		}
	}
}

// TestPairBatchCountsPairings: one obsv pairing per point, on either path.
func TestPairBatchCountsPairings(t *testing.T) {
	sys := ParamsTest.MustSystem()
	pre := sys.G1Precomp(sys.G1())
	for _, n := range []int{1, laneCrossover, ff.LaneWidth + 1} {
		qs := make([]ec.Point, n)
		for i := range qs {
			qs[i] = sys.G1()
		}
		before := obsv.CounterMap()["pairing_ops"]
		pre.PairBatch(qs, make([]GT, n))
		if got := obsv.CounterMap()["pairing_ops"] - before; got != uint64(n) {
			t.Errorf("batch of %d: %d pairings counted", n, got)
		}
	}
}

// checkFinalExpLanes runs finalExpLanes on the accumulators fs, their
// raw copies in the lanes, against finalExp on each.
func checkFinalExpLanes(t *testing.T, e *Pairing, fs [ff.LaneWidth]ff.E2) {
	t.Helper()
	var fa, fb ff.Lanes
	for j := range fs {
		fa.SetRaw(j, &fs[j].A)
		fb.SetRaw(j, &fs[j].B)
	}
	var out [ff.LaneWidth]ff.E2
	e.finalExpLanes(&out, &fa, &fb)
	for j := range fs {
		if want := e.finalExp(fs[j]); !out[j].Equal(want) {
			t.Fatalf("lane %d: finalExpLanes(%v) = %v, finalExp %v", j, fs[j], out[j], want)
		}
	}
}

// TestPairBatchConcurrentFirstUse: goroutines meeting a fresh Pairing and
// a fresh precomputation in PairBatch at once build the lane constants and
// lines once between them (run under -race) and all get Pair's values.
func TestPairBatchConcurrentFirstUse(t *testing.T) {
	sys := ParamsTest.MustSystem()
	g := sys.G1()
	pre := sys.G1Precomp(sys.Curve.ScalarMult(g, randBig(t, sys)))
	qs := make([]ec.Point, ff.LaneWidth)
	for i := range qs {
		qs[i] = sys.Curve.ScalarMult(g, randBig(t, sys))
	}
	var wg sync.WaitGroup
	outs := make([][]GT, 4)
	for w := range outs {
		outs[w] = make([]GT, len(qs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			pre.PairBatch(qs, outs[w])
		}()
	}
	wg.Wait()
	for w, out := range outs {
		for i, q := range qs {
			if want := pre.Pair(q); !out[i].Equal(want) {
				t.Fatalf("goroutine %d, point %d: PairBatch %x, Pair %x", w, i, out[i].Bytes(), want.Bytes())
			}
		}
	}
}
