package pairing

import (
	"slices"
	"sync"
	"testing"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
	"mwskit/internal/obsv"
)

// TestPairBatchMatchesPair checks PairBatch against the Pair loop, bit for
// bit, for every batch size from 1 to 17 — across the crossover and two
// lane widths — on every preset, over subgroup points mixed with ∞,
// points with no G1 part and hashed points outside G1. The points meet
// one precomputation (the broadcast lines), precomputations over ∞ and
// over a point outside G1, which pair to 1, alone and beside a key's, and
// three keys mixed and repeated with those two in mixed lanes (the
// gathered lines), one chunk led by a lane that pairs to 1. Where the
// field has no lane kernel it checks the loop against itself.
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
		var keys [3]*G1Precomp
		for k := range keys {
			keys[k] = sys.G1Precomp(c.ScalarMult(g, randBig(t, sys)))
		}
		a, b, d := keys[0], keys[1], keys[2]
		inf, tors := sys.G1Precomp(c.Infinity()), sys.G1Precomp(torsionPoint(t, c))
		for kind, cycle := range map[string][]*G1Precomp{
			"one key":       {a},
			"∞":             {inf},
			"outside G1":    {tors},
			"one key and 1": {a, inf, a, a, tors},
			"mixed":         {inf, a, b, a, tors, d, b},
		} {
			pres := slices.Repeat(cycle, len(pts)/len(cycle)+1)[:len(pts)]
			for n := 1; n <= len(pts); n++ {
				out := make([]GT, n)
				PairBatch(pres[:n], pts[:n], out)
				for i, q := range pts[:n] {
					if want := pres[i].Pair(q); !out[i].Equal(want) {
						t.Fatalf("%s, %s: batch of %d, point %d: PairBatch %x, Pair %x", name, kind, n, i, out[i].Bytes(), want.Bytes())
					}
				}
			}
		}
	}
}

// TestPairBatchCountsPairings: one obsv pairing per point, on either path,
// under one key or several.
func TestPairBatchCountsPairings(t *testing.T) {
	sys := ParamsTest.MustSystem()
	one, other := sys.G1Precomp(sys.G1()), sys.G1Precomp(sys.Curve.Double(sys.G1()))
	for _, n := range []int{1, laneCrossover, ff.LaneWidth + 1} {
		qs := make([]ec.Point, n)
		for i := range qs {
			qs[i] = sys.G1()
		}
		for kind, pres := range map[string][]*G1Precomp{
			"one key":  slices.Repeat([]*G1Precomp{one}, n),
			"two keys": slices.Repeat([]*G1Precomp{one, other}, n)[:n],
		} {
			before := obsv.CounterMap()["pairing_ops"]
			PairBatch(pres, qs, make([]GT, n))
			if got := obsv.CounterMap()["pairing_ops"] - before; got != uint64(n) {
				t.Errorf("%s, batch of %d: %d pairings counted", kind, n, got)
			}
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
		if want := e.finalExp(fs[j]); !e2Equal(out[j], want) {
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
			PairBatch(slices.Repeat([]*G1Precomp{pre}, len(qs)), qs, outs[w])
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
