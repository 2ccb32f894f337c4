package ec

import (
	"crypto/rand"
	"math/big"
	"testing"

	"mwskit/internal/ff"
)

// Benchmarks run on the bf80-scale curve (512-bit field).
var (
	benchP, _ = new(big.Int).SetString("12810777694916072611203116704468939970767213228450076790270442963300868876670239351063471358988175446936393497845530695391654418328020042030714485041645431", 10)
	benchQ, _ = new(big.Int).SetString("1120670043750042761784702932102626593805650752633", 10)
)

func benchCurve(b *testing.B) (*Curve, Point) {
	b.Helper()
	c := MustCurve(ff.MustField(benchP), benchQ)
	g, err := c.HashToSubgroup("bench", []byte("generator"))
	if err != nil {
		b.Fatal(err)
	}
	return c, g
}

func BenchmarkPointAdd(b *testing.B) {
	c, g := benchCurve(b)
	h := c.Double(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Add(g, h)
	}
}

func BenchmarkPointDouble(b *testing.B) {
	c, g := benchCurve(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Double(g)
	}
}

func BenchmarkScalarMult(b *testing.B) {
	c, g := benchCurve(b)
	k, err := rand.Int(rand.Reader, benchQ)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ScalarMult(g, k)
	}
}

func BenchmarkHashToSubgroup(b *testing.B) {
	c, _ := benchCurve(b)
	msg := []byte("ELECTRIC-APTCOMPLEX-SV-CA||nonce-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.HashToSubgroup("bench", msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointMarshal(b *testing.B) {
	c, g := benchCurve(b)
	enc := c.Bytes(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PointFromBytes(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoordinates is the DESIGN.md §5 ablation: affine double-and-add
// (one field inversion per step, as used inside the Miller loop where the
// line slopes are needed anyway) versus the Jacobian fast path used for
// plain scalar multiplication.
func BenchmarkCoordinates(b *testing.B) {
	c, g := benchCurve(b)
	k, err := rand.Int(rand.Reader, benchQ)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Jacobian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = c.ScalarMult(g, k)
		}
	})
	b.Run("Affine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Affine double-and-add, mirroring the Miller loop's point
			// arithmetic (Add/Double invert per operation).
			r := c.Infinity()
			for j := k.BitLen() - 1; j >= 0; j-- {
				r = c.Double(r)
				if k.Bit(j) == 1 {
					r = c.Add(r, g)
				}
			}
		}
	})
}

// BenchmarkCombMul is the device's per-deposit U = rP: a secret scalar
// times the fixed generator through its precomputed table.
func BenchmarkCombMul(b *testing.B) {
	c, g := benchCurve(b)
	comb := c.NewComb(g)
	k, err := c.RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = comb.Mul(k)
	}
}
