package ff

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"
)

// E2FromBase, E2Zero, E2FromBytes and Equal have no caller outside this
// package's tests, so they live here rather than in fp2.go.

// Equal reports whether x == y.
func (x E2) Equal(y E2) bool { return x.A.Equal(y.A) && x.B.Equal(y.B) }

// E2FromBase embeds an F_p element into F_p².
func E2FromBase(a Element) E2 { return E2{A: a, B: a.f.Zero()} }

// E2Zero returns the additive identity of F_p².
func (f *Field) E2Zero() E2 { return E2{A: f.Zero(), B: f.Zero()} }

// E2FromBytes decodes the 2·ByteLen fixed-width encoding produced by Bytes.
func (f *Field) E2FromBytes(b []byte) (E2, error) {
	if len(b) != 2*f.byteLen {
		return E2{}, fmt.Errorf("ff: F_p² encoding must be %d bytes, got %d", 2*f.byteLen, len(b))
	}
	a, err := f.FromBytes(b[:f.byteLen])
	if err != nil {
		return E2{}, err
	}
	bb, err := f.FromBytes(b[f.byteLen:])
	if err != nil {
		return E2{}, err
	}
	return E2{A: a, B: bb}, nil
}

func e2FromInts(f *Field, a, b int64) E2 {
	return NewE2(f.FromInt64(a), f.FromInt64(b))
}

// e2Add, e2Square and conj are x + y, x² and A − B·i (which equals x^p
// when p ≡ 3 (mod 4)) by value; none has a caller outside the tests.
func e2Add(x, y E2) E2 {
	x.A.SetAdd(&x.A, &y.A)
	x.B.SetAdd(&x.B, &y.B)
	return x
}

func conj(x E2) E2 { return NewE2(x.A, x.B.Neg()) }

func e2Square(x E2) E2 { x.SetSquare(&x); return x }

// Norm, Inv and Exp are the textbook F_p² norm, inverse and power, which nothing
// outside the tests calls since the Lucas-ladder final exponentiation;
// they stay here as the field-law tests' references (internal/pairing's
// tests keep their own, e2Inv and e2Exp).

// Norm returns a² + b² ∈ F_p, the field norm of x.
func (x E2) Norm() Element { return x.A.Square().Add(x.B.Square()) }

// Inv returns x⁻¹ = conj(x)/norm(x). It panics if x is zero.
func (x E2) Inv() E2 {
	n := x.Norm()
	if n.IsZero() {
		panic("ff: inverse of zero in F_p²")
	}
	ni := n.Inv()
	return E2{A: x.A.Mul(ni), B: x.B.Neg().Mul(ni)}
}

// Exp returns x^k for a non-negative exponent, by square-and-multiply.
func (x E2) Exp(k *big.Int) E2 {
	f := x.A.f
	if k.Sign() == 0 {
		return f.E2One()
	}
	r := f.E2One()
	for i := k.BitLen() - 1; i >= 0; i-- {
		r.SetSquare(&r)
		if k.Bit(i) == 1 {
			r.SetMul(&r, &x)
		}
	}
	return r
}

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
	if !conj(x.Mul(y)).Equal(conj(x).Mul(conj(y))) {
		t.Error("conjugation is not multiplicative")
	}
	// x · conj(x) = norm(x) embedded in the base field
	if !x.Mul(conj(x)).Equal(E2FromBase(x.Norm())) {
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
		if !conj(x).Equal(x.Exp(f.P())) {
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
