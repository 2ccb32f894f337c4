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

// BenchmarkFpJacobi is the residuosity test H1 runs before FpSqrt, over
// 256 random elements in turn, as its length follows the value: ≈ 0.1×
// FpSqrt.
func BenchmarkFpJacobi(b *testing.B) {
	var xs [256]Element
	for i := range xs {
		x, err := benchField.RandomNonZero(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		xs[i] = x
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if xs[i%len(xs)].Jacobi() == 0 {
			b.Fatal("a non-zero element went undecided")
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

// benchLanes fills a lane vector with exact forms of random bf80 elements;
// it skips the benchmark where the lane kernel cannot run.
func benchLanes(b *testing.B) *Lanes {
	b.Helper()
	if !benchField.HasLanes() {
		b.Skip("no AVX-512 IFMA lane kernel on this host")
	}
	var l Lanes
	for j := range LaneWidth {
		x, _ := benchElems(b)
		l.SetRaw(j, &x)
	}
	benchField.LaneExact(&l, &l)
	return &l
}

// BenchmarkLaneMul is one lane product: eight bf80 multiplications, to
// set against eight BenchmarkFpMul.
func BenchmarkLaneMul(b *testing.B) {
	x, y := benchLanes(b), benchLanes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchField.LaneMul(x, x, y)
	}
}

// BenchmarkLaneAdd is eight bf80 additions, to set against eight FpAdd.
func BenchmarkLaneAdd(b *testing.B) {
	x, y := benchLanes(b), benchLanes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchField.LaneAdd(x, x, y)
	}
}
