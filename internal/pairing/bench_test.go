package pairing

import (
	"crypto/rand"
	"math/big"
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
