package ff

import (
	"fmt"
	"io"
)

// E2 is an element of F_p² = F_p[i]/(i²+1), stored as A + B·i. Like
// Element it has one body per operation in destination-receiver form
// (z may alias x, y or both) and value wrappers for cold paths.
type E2 struct {
	A Element // real part
	B Element // imaginary part
}

// NewE2 builds an F_p² element from its two coordinates, which must belong
// to the same field.
func NewE2(a, b Element) E2 {
	if a.f != b.f {
		panic("ff: E2 coordinates from different fields")
	}
	return E2{A: a, B: b}
}

// E2One returns the multiplicative identity of F_p².
func (f *Field) E2One() E2 { return E2{A: f.One(), B: f.Zero()} }

// E2Random returns a uniformly random element of F_p².
func (f *Field) E2Random(r io.Reader) (E2, error) {
	a, err := f.Random(r)
	if err != nil {
		return E2{}, err
	}
	b, err := f.Random(r)
	if err != nil {
		return E2{}, err
	}
	return E2{A: a, B: b}, nil
}

// Bytes returns the concatenated fixed-width encodings of the two parts.
func (x E2) Bytes() []byte { return append(x.A.Bytes(), x.B.Bytes()...) }

// IsZero reports whether x is the additive identity.
func (x E2) IsZero() bool { return x.A.IsZero() && x.B.IsZero() }

// IsOne reports whether x is the multiplicative identity.
func (x E2) IsOne() bool { return x.A.IsOne() && x.B.IsZero() }

// SetNeg sets z = −x.
func (z *E2) SetNeg(x *E2) {
	z.A.SetNeg(&x.A)
	z.B.SetNeg(&x.B)
}

// SetMul sets z = x · y by Karatsuba over i²=−1: three base
// multiplications (ac, bd, (a+b)(c+d)) instead of the schoolbook four, with
// (a+bi)(c+di) = (ac − bd) + ((a+b)(c+d) − ac − bd)·i. Both coordinates of
// z are written after the last read of x and y.
func (z *E2) SetMul(x, y *E2) {
	var ac, bd, cross, t Element
	ac.SetMul(&x.A, &y.A)
	bd.SetMul(&x.B, &y.B)
	cross.SetAdd(&x.A, &x.B)
	t.SetAdd(&y.A, &y.B)
	cross.SetMul(&cross, &t)
	z.A.SetSub(&ac, &bd)
	cross.SetSub(&cross, &ac)
	z.B.SetSub(&cross, &bd)
}

// SetSquare sets z = x² via (a+bi)² = (a+b)(a−b) + 2ab·i.
func (z *E2) SetSquare(x *E2) {
	var sum, dif Element
	sum.SetAdd(&x.A, &x.B)
	dif.SetSub(&x.A, &x.B)
	z.B.SetMul(&x.A, &x.B)
	z.B.SetDouble(&z.B)
	z.A.SetMul(&sum, &dif)
}

// SetSelect sets z = a when v == 1 and z = b when v == 0, in constant
// time: the masked table scan of pairing.GTExpSecret.
func (z *E2) SetSelect(v uint64, a, b *E2) {
	z.A.SetSelect(v, &a.A, &b.A)
	z.B.SetSelect(v, &a.B, &b.B)
}

// Neg returns −x.
func (x E2) Neg() E2 { x.SetNeg(&x); return x }

// Mul returns x · y.
func (x E2) Mul(y E2) E2 { x.SetMul(&x, &y); return x }

// String implements fmt.Stringer.
func (x E2) String() string { return fmt.Sprintf("(%s + %s·i)", x.A, x.B) }
