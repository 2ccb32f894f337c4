package pairing

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"slices"
	"testing"

	"mwskit/internal/ec"
)

// The benchmarks the CI bench-smoke job runs at -benchtime=0.2s on
// the paper-scale preset, so a final exponentiation that fell back to
// square-and-multiply (FinalExp ≈ +40 %) shows in the log.

func benchPoints(b *testing.B) (*System, ec.Point, ec.Point) {
	b.Helper()
	sys := ParamsBF80.MustSystem()
	k1, _ := sys.RandomScalar(rand.Reader)
	k2, _ := sys.RandomScalar(rand.Reader)
	return sys, sys.G1Comb().Mul(k1), sys.G1Comb().Mul(k2)
}

var sinkGT GT

func BenchmarkPair(b *testing.B) {
	sys, p, q := benchPoints(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGT = sys.Pair(p, q)
	}
}

func BenchmarkPrecompPair(b *testing.B) {
	sys, p, q := benchPoints(b)
	pre := sys.G1Precomp(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkGT = pre.Pair(q)
	}
}

// BenchmarkPairBatch is one lane batch: eight points against one
// precomputation, a search chunk's tag round. On a host with AVX-512 IFMA
// it reads ≈ 0.3 × eight PrecompPair; ≈ 8 × means the lane kernel did not
// run. The sub-benchmarks below eight locate laneCrossover: the fewest
// points whose lane batch beats as many PrecompPair.
func BenchmarkPairBatch(b *testing.B) {
	sys, p, _ := benchPoints(b)
	pre := sys.G1Precomp(p)
	qs := make([]ec.Point, 8)
	for i := range qs {
		_, _, qs[i] = benchPoints(b)
	}
	pres := slices.Repeat([]*G1Precomp{pre}, len(qs))
	out := make([]GT, len(qs))
	PairBatch(pres, qs, out) // build the lane lines outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PairBatch(pres, qs, out)
	}
}

// BenchmarkLaneBatch times the lane path itself for 1–4 points, which
// PairBatch sends to the Pair loop below laneCrossover.
func BenchmarkLaneBatch(b *testing.B) {
	sys, p, _ := benchPoints(b)
	if !sys.Curve.F.HasLanes() {
		b.Skip("no AVX-512 IFMA lane kernel on this host")
	}
	pre := sys.G1Precomp(p)
	qs := make([]ec.Point, 4)
	for i := range qs {
		_, _, qs[i] = benchPoints(b)
	}
	pres := slices.Repeat([]*G1Precomp{pre}, len(qs))
	out := make([]GT, len(qs))
	for n := 1; n <= len(qs); n++ {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pairLanes(pre, pres[:n], qs[:n], out[:n])
			}
		})
	}
}

// BenchmarkG1Precomp is the cost a fixed first argument pays once: the
// Miller walk and the batch inversion that normalises its lines. It is
// the dearer half of the precomputed form, repaid after about five
// evaluations (PrecompPair against Pair).
func BenchmarkG1Precomp(b *testing.B) {
	sys, p, _ := benchPoints(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPre = sys.G1Precomp(p)
	}
}

var sinkPre *G1Precomp

// BenchmarkPairCofactor is the cold-deposit shape: a fixed first argument
// against a hashed curve point, cofactor included. "cleared" is what it
// replaced (clear h on the curve, then a full pairing) and "exp" the
// unfolded alternative (fixed-argument pairing, then the power h mod q in
// F_p²).
func BenchmarkPairCofactor(b *testing.B) {
	sys, p, _ := benchPoints(b)
	pre := sys.G1Precomp(p)
	r := hashedCurvePoint(b, sys.Curve, 0)
	hModQ := new(big.Int).Mod(sys.Curve.H, sys.Curve.Q)
	b.Run("folded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkGT = pre.PairCofactor(r)
		}
	})
	b.Run("exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkGT = pre.Pair(r).Exp(hModQ)
		}
	})
	b.Run("cleared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkGT = sys.Pair(sys.Curve.ClearCofactor(r), p)
		}
	})
}

func BenchmarkFinalExp(b *testing.B) {
	sys, p, q := benchPoints(b)
	f := sys.G1Precomp(p).miller(q)
	b.Run("lucas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkGT.v = sys.finalExp(f)
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkGT.v = sys.finalExpRef(f)
		}
	})
}
