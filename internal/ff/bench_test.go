package ff

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// benchField is a 512-bit-scale prime field (the bf80 modulus) so the
// numbers reflect production parameters.
var benchField = func() *Field {
	p, _ := new(big.Int).SetString("12810777694916072611203116704468939970767213228450076790270442963300868876670239351063471358988175446936393497845530695391654418328020042030714485041645431", 10)
	return MustField(p)
}()

func benchElems(b *testing.B) (Element, Element) {
	b.Helper()
	x, err := benchField.RandomNonZero(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	y, err := benchField.RandomNonZero(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	return x, y
}

func BenchmarkFpMul(b *testing.B) {
	x, y := benchElems(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x.Mul(y)
	}
}

func BenchmarkFpSquare(b *testing.B) {
	x, _ := benchElems(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x = x.Square()
	}
}

func BenchmarkFpInv(b *testing.B) {
	x, _ := benchElems(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Inv()
	}
}

func BenchmarkFpSqrt(b *testing.B) {
	x, _ := benchElems(b)
	sq := x.Square()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sq.Sqrt(); !ok {
			b.Fatal("square reported non-residue")
		}
	}
}

func BenchmarkFp2Mul(b *testing.B) {
	x, y := benchElems(b)
	e1 := NewE2(x, y)
	e2 := NewE2(y, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e1 = e1.Mul(e2)
	}
}

func BenchmarkFp2Square(b *testing.B) {
	x, y := benchElems(b)
	e := NewE2(x, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SetSquare(&e)
	}
}

func BenchmarkFp2Inv(b *testing.B) {
	x, y := benchElems(b)
	e := NewE2(x, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Inv()
	}
}

func BenchmarkFp2Exp(b *testing.B) {
	x, y := benchElems(b)
	e := NewE2(x, y)
	exp, _ := new(big.Int).SetString("1120670043750042761784702932102626593805650752633", 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Exp(exp)
	}
}

// The in-place forms the curve and pairing kernels are written on.
func BenchmarkFpSetMul(b *testing.B) {
	x, y := benchElems(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.SetMul(&x, &y)
	}
}

func BenchmarkFpSetAdd(b *testing.B) {
	x, y := benchElems(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.SetAdd(&x, &y)
	}
}

func BenchmarkFpSetSub(b *testing.B) {
	x, y := benchElems(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.SetSub(&x, &y)
	}
}
