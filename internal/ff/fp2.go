package ff

import (
	"fmt"
	"io"
	"math/big"
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

// E2FromBase embeds an F_p element into F_p².
func E2FromBase(a Element) E2 { return E2{A: a, B: a.f.Zero()} }

// E2Zero returns the additive identity of F_p².
func (f *Field) E2Zero() E2 { return E2{A: f.Zero(), B: f.Zero()} }

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

// Bytes returns the concatenated fixed-width encodings of the two parts.
func (x E2) Bytes() []byte { return append(x.A.Bytes(), x.B.Bytes()...) }

// IsZero reports whether x is the additive identity.
func (x E2) IsZero() bool { return x.A.IsZero() && x.B.IsZero() }

// IsOne reports whether x is the multiplicative identity.
func (x E2) IsOne() bool { return x.A.IsOne() && x.B.IsZero() }

// Equal reports whether x == y.
func (x E2) Equal(y E2) bool { return x.A.Equal(y.A) && x.B.Equal(y.B) }

// SetAdd sets z = x + y.
func (z *E2) SetAdd(x, y *E2) {
	z.A.SetAdd(&x.A, &y.A)
	z.B.SetAdd(&x.B, &y.B)
}

// SetSub sets z = x − y.
func (z *E2) SetSub(x, y *E2) {
	z.A.SetSub(&x.A, &y.A)
	z.B.SetSub(&x.B, &y.B)
}

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

// Conjugate returns A − B·i, which equals x^p when p ≡ 3 (mod 4).
func (x E2) Conjugate() E2 { x.B.SetNeg(&x.B); return x }

// Mul returns x · y.
func (x E2) Mul(y E2) E2 { x.SetMul(&x, &y); return x }

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

// String implements fmt.Stringer.
func (x E2) String() string { return fmt.Sprintf("(%s + %s·i)", x.A, x.B) }
