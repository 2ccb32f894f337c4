package ff

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

func e2FromInts(f *Field, a, b int64) E2 {
	return NewE2(f.FromInt64(a), f.FromInt64(b))
}

// e2Add and e2Square are x + y and x² by value; neither has a caller
// outside the tests, so only the in-place forms exist.
func e2Add(x, y E2) E2 { x.SetAdd(&x, &y); return x }

func e2Square(x E2) E2 { x.SetSquare(&x); return x }

func TestE2Identities(t *testing.T) {
	f := testField(t)
	if !f.E2Zero().IsZero() {
		t.Error("E2Zero not zero")
	}
	if !f.E2One().IsOne() {
		t.Error("E2One not one")
	}
	x := e2FromInts(f, 3, 4)
	if !e2Add(x, f.E2Zero()).Equal(x) {
		t.Error("additive identity failed")
	}
	if !x.Mul(f.E2One()).Equal(x) {
		t.Error("multiplicative identity failed")
	}
}

func TestE2FieldAxioms(t *testing.T) {
	f := testField(t)
	el := func(a, b int64) E2 { return e2FromInts(f, a, b) }

	t.Run("MulCommutes", func(t *testing.T) {
		if err := quick.Check(func(a, b, c, d int64) bool {
			return el(a, b).Mul(el(c, d)).Equal(el(c, d).Mul(el(a, b)))
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("MulAssociates", func(t *testing.T) {
		if err := quick.Check(func(a, b, c, d, e, g int64) bool {
			x, y, z := el(a, b), el(c, d), el(e, g)
			return x.Mul(y).Mul(z).Equal(x.Mul(y.Mul(z)))
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("Distributes", func(t *testing.T) {
		if err := quick.Check(func(a, b, c, d, e, g int64) bool {
			x, y, z := el(a, b), el(c, d), el(e, g)
			return x.Mul(e2Add(y, z)).Equal(e2Add(x.Mul(y), x.Mul(z)))
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("SquareMatchesMul", func(t *testing.T) {
		if err := quick.Check(func(a, b int64) bool {
			x := el(a, b)
			return e2Square(x).Equal(x.Mul(x))
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("NegCancels", func(t *testing.T) {
		if err := quick.Check(func(a, b int64) bool {
			x := el(a, b)
			return e2Add(x, x.Neg()).IsZero()
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("InvCancels", func(t *testing.T) {
		if err := quick.Check(func(a, b int64) bool {
			x := el(a, b)
			if x.IsZero() {
				return true
			}
			return x.Mul(x.Inv()).IsOne()
		}, nil); err != nil {
			t.Error(err)
		}
	})
}

func TestE2ISquaredIsMinusOne(t *testing.T) {
	f := testField(t)
	i := NewE2(f.Zero(), f.One())
	minus1 := E2FromBase(f.One().Neg())
	if !e2Square(i).Equal(minus1) {
		t.Fatalf("i² = %v, want −1", e2Square(i))
	}
}

func TestE2ConjugateProperties(t *testing.T) {
	f := testField(t)
	x, err := f.E2Random(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	y, err := f.E2Random(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// conj(xy) = conj(x)·conj(y)
	if !x.Mul(y).Conjugate().Equal(x.Conjugate().Mul(y.Conjugate())) {
		t.Error("conjugation is not multiplicative")
	}
	// x · conj(x) = norm(x) embedded in the base field
	if !x.Mul(x.Conjugate()).Equal(E2FromBase(x.Norm())) {
		t.Error("x·conj(x) != norm(x)")
	}
}

func TestE2FrobeniusIsPthPower(t *testing.T) {
	f := testField(t)
	for i := 0; i < 8; i++ {
		x, err := f.E2Random(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if !x.Conjugate().Equal(x.Exp(f.P())) {
			t.Fatalf("conj(%v) != x^p", x)
		}
	}
}

func TestE2ExpLaws(t *testing.T) {
	f := testField(t)
	x, err := f.E2Random(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a := big.NewInt(12345)
	b := big.NewInt(6789)
	sum := new(big.Int).Add(a, b)
	if !x.Exp(a).Mul(x.Exp(b)).Equal(x.Exp(sum)) {
		t.Error("x^a·x^b != x^(a+b)")
	}
	prod := new(big.Int).Mul(a, b)
	if !x.Exp(a).Exp(b).Equal(x.Exp(prod)) {
		t.Error("(x^a)^b != x^(ab)")
	}
	if !x.Exp(big.NewInt(0)).IsOne() {
		t.Error("x^0 != 1")
	}
}

func TestE2MultiplicativeGroupOrder(t *testing.T) {
	f := testField(t)
	x, err := f.E2Random(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if x.IsZero() {
		x = f.E2One()
	}
	p := f.P()
	order := new(big.Int).Mul(p, p)
	order.Sub(order, big.NewInt(1)) // p²−1
	if !x.Exp(order).IsOne() {
		t.Fatal("x^(p²−1) != 1")
	}
}

func TestE2BytesRoundTrip(t *testing.T) {
	f := testField(t)
	for i := 0; i < 8; i++ {
		x, err := f.E2Random(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		back, err := f.E2FromBytes(x.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(x) {
			t.Fatal("E2 byte round trip changed value")
		}
	}
	if _, err := f.E2FromBytes([]byte{1, 2, 3}); err == nil {
		t.Error("short E2 encoding accepted")
	}
}

func TestNewE2MismatchedFieldsPanics(t *testing.T) {
	f1 := testField(t)
	f2 := MustField(big.NewInt(7))
	defer func() {
		if recover() == nil {
			t.Fatal("NewE2 with mixed fields did not panic")
		}
	}()
	NewE2(f1.One(), f2.One())
}

func TestE2InvZeroPanics(t *testing.T) {
	f := testField(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Inv of E2 zero did not panic")
		}
	}()
	f.E2Zero().Inv()
}
