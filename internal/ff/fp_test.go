package ff

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

// testPrime is the Mersenne prime 2⁶¹−1 = 2305843009213693951 ≡ 3 (mod 4):
// large enough to exercise real reductions, small enough to keep the
// property tests fast.
var testPrime = big.NewInt(2305843009213693951)

// Legendre returns the Legendre symbol (e/p) by Euler's criterion
// e^((p−1)/2), with (p−1)/2 = p >> 1 for odd p: 1 if e is a non-zero
// square, −1 if a non-square, 0 if e is zero. Only tests call it, so it
// lives here rather than in fp.go.
func (e Element) Legendre() int {
	if e.IsZero() {
		return 0
	}
	if e.Exp(new(big.Int).Rsh(e.f.p, 1)).IsOne() {
		return 1
	}
	return -1
}

func testField(t *testing.T) *Field {
	t.Helper()
	f, err := NewField(testPrime)
	if err != nil {
		t.Fatalf("NewField: %v", err)
	}
	return f
}

func TestNewFieldRejectsBadModulus(t *testing.T) {
	cases := []struct {
		name string
		p    *big.Int
	}{
		{"nil", nil},
		{"zero", big.NewInt(0)},
		{"negative", big.NewInt(-7)},
		{"even", big.NewInt(10)},
		{"1mod4", big.NewInt(13)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewField(tc.p); err == nil {
				t.Fatalf("NewField(%v) accepted invalid modulus", tc.p)
			}
		})
	}
}

func TestNewFieldAccepts3Mod4(t *testing.T) {
	for _, p := range []int64{7, 11, 19, 23, 2305843009213693951} {
		if _, err := NewField(big.NewInt(p)); err != nil {
			t.Errorf("NewField(%d): %v", p, err)
		}
	}
}

func TestMustFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustField on even modulus did not panic")
		}
	}()
	MustField(big.NewInt(8))
}

func TestElementBasics(t *testing.T) {
	f := testField(t)
	if !f.Zero().IsZero() {
		t.Error("Zero is not zero")
	}
	if !f.One().IsOne() {
		t.Error("One is not one")
	}
	if f.One().IsZero() || f.Zero().IsOne() {
		t.Error("identity confusion")
	}
	neg := f.FromInt64(-5)
	want := f.NewElement(new(big.Int).Sub(testPrime, big.NewInt(5)))
	if !neg.Equal(want) {
		t.Errorf("FromInt64(-5) = %v, want %v", neg, want)
	}
}

func TestReduction(t *testing.T) {
	f := testField(t)
	big2p := new(big.Int).Lsh(testPrime, 1) // 2p ≡ 0
	if !f.NewElement(big2p).IsZero() {
		t.Error("2p did not reduce to zero")
	}
	over := new(big.Int).Add(testPrime, big.NewInt(9))
	if !f.NewElement(over).Equal(f.FromInt64(9)) {
		t.Error("p+9 did not reduce to 9")
	}
}

func randomElems(t *testing.T, f *Field, n int) []Element {
	t.Helper()
	out := make([]Element, n)
	for i := range out {
		e, err := f.Random(rand.Reader)
		if err != nil {
			t.Fatalf("Random: %v", err)
		}
		out[i] = e
	}
	return out
}

func TestFieldAxioms(t *testing.T) {
	f := testField(t)
	// quick.Check with generated int64 values mapped into the field keeps
	// the generator simple while covering the whole field via reduction.
	elem := func(v int64) Element { return f.FromInt64(v) }

	t.Run("AddCommutes", func(t *testing.T) {
		if err := quick.Check(func(a, b int64) bool {
			return elem(a).Add(elem(b)).Equal(elem(b).Add(elem(a)))
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("AddAssociates", func(t *testing.T) {
		if err := quick.Check(func(a, b, c int64) bool {
			return elem(a).Add(elem(b)).Add(elem(c)).Equal(elem(a).Add(elem(b).Add(elem(c))))
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("MulCommutes", func(t *testing.T) {
		if err := quick.Check(func(a, b int64) bool {
			return elem(a).Mul(elem(b)).Equal(elem(b).Mul(elem(a)))
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("MulAssociates", func(t *testing.T) {
		if err := quick.Check(func(a, b, c int64) bool {
			return elem(a).Mul(elem(b)).Mul(elem(c)).Equal(elem(a).Mul(elem(b).Mul(elem(c))))
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("Distributes", func(t *testing.T) {
		if err := quick.Check(func(a, b, c int64) bool {
			lhs := elem(a).Mul(elem(b).Add(elem(c)))
			rhs := elem(a).Mul(elem(b)).Add(elem(a).Mul(elem(c)))
			return lhs.Equal(rhs)
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("NegCancels", func(t *testing.T) {
		if err := quick.Check(func(a int64) bool {
			return elem(a).Add(elem(a).Neg()).IsZero()
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("SubIsAddNeg", func(t *testing.T) {
		if err := quick.Check(func(a, b int64) bool {
			return elem(a).Sub(elem(b)).Equal(elem(a).Add(elem(b).Neg()))
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("InvCancels", func(t *testing.T) {
		if err := quick.Check(func(a int64) bool {
			e := elem(a)
			if e.IsZero() {
				return true
			}
			return e.Mul(e.Inv()).IsOne()
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("SquareMatchesMul", func(t *testing.T) {
		if err := quick.Check(func(a int64) bool {
			return elem(a).Square().Equal(elem(a).Mul(elem(a)))
		}, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("DoubleMatchesAdd", func(t *testing.T) {
		if err := quick.Check(func(a int64) bool {
			return elem(a).Double().Equal(elem(a).Add(elem(a)))
		}, nil); err != nil {
			t.Error(err)
		}
	})
}

func TestInvZeroPanics(t *testing.T) {
	for _, f := range diffFields(t) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p = %d bits: Inv of zero did not panic", f.p.BitLen())
				}
			}()
			f.Zero().Inv()
		}()
	}
}

func TestExp(t *testing.T) {
	f := testField(t)
	e := f.FromInt64(3)
	if got, want := e.Exp(big.NewInt(5)), f.FromInt64(243); !got.Equal(want) {
		t.Errorf("3^5 = %v, want %v", got, want)
	}
	if !e.Exp(big.NewInt(0)).IsOne() {
		t.Error("x^0 != 1")
	}
	// Fermat: a^(p−1) = 1 for random non-zero a.
	a, err := f.RandomNonZero(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pm1 := new(big.Int).Sub(testPrime, big.NewInt(1))
	if !a.Exp(pm1).IsOne() {
		t.Error("Fermat little theorem violated")
	}
}

func TestSqrtRoundTrip(t *testing.T) {
	f := testField(t)
	for _, a := range randomElems(t, f, 32) {
		sq := a.Square()
		r, ok := sq.Sqrt()
		if !ok {
			t.Fatalf("square %v reported as non-residue", sq)
		}
		if !r.Square().Equal(sq) {
			t.Fatalf("sqrt(%v)² != input", sq)
		}
	}
}

func TestSqrtNonResidue(t *testing.T) {
	f := testField(t)
	// −1 is a non-residue exactly because p ≡ 3 (mod 4).
	minus1 := f.One().Neg()
	if minus1.Legendre() != -1 {
		t.Fatal("−1 should be a non-residue for p ≡ 3 mod 4")
	}
	if _, ok := minus1.Sqrt(); ok {
		t.Fatal("Sqrt claimed a root of −1")
	}
}

func TestLegendreMultiplicativity(t *testing.T) {
	f := testField(t)
	elems := randomElems(t, f, 16)
	for i := 0; i+1 < len(elems); i += 2 {
		a, b := elems[i], elems[i+1]
		if a.IsZero() || b.IsZero() {
			continue
		}
		if a.Legendre()*b.Legendre() != a.Mul(b).Legendre() {
			t.Fatalf("Legendre not multiplicative at %v, %v", a, b)
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := testField(t)
	for _, a := range randomElems(t, f, 16) {
		enc := a.Bytes()
		if len(enc) != f.ByteLen() {
			t.Fatalf("encoding length %d, want %d", len(enc), f.ByteLen())
		}
		back, err := f.FromBytes(enc)
		if err != nil {
			t.Fatalf("FromBytes: %v", err)
		}
		if !back.Equal(a) {
			t.Fatalf("round trip changed value")
		}
	}
}

func TestFromBytesRejects(t *testing.T) {
	f := testField(t)
	if _, err := f.FromBytes(make([]byte, f.ByteLen()+1)); err == nil {
		t.Error("oversized encoding accepted")
	}
	if _, err := f.FromBytes(make([]byte, f.ByteLen()-1)); err == nil {
		t.Error("undersized encoding accepted")
	}
	// Encoding of p itself is out of range.
	over := make([]byte, f.ByteLen())
	testPrime.FillBytes(over)
	if _, err := f.FromBytes(over); err == nil {
		t.Error("encoding ≥ p accepted")
	}
}

func TestBytesFixedWidth(t *testing.T) {
	f := testField(t)
	small := f.FromInt64(1)
	enc := small.Bytes()
	if len(enc) != f.ByteLen() {
		t.Fatalf("small value encoding not fixed width")
	}
	if !bytes.Equal(enc[:len(enc)-1], make([]byte, len(enc)-1)) {
		t.Fatal("expected leading zero padding")
	}
}

func TestRandomInRange(t *testing.T) {
	f := testField(t)
	for i := 0; i < 64; i++ {
		e, err := f.Random(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if e.BigInt().Cmp(testPrime) >= 0 || e.BigInt().Sign() < 0 {
			t.Fatal("random element out of range")
		}
	}
}

func TestRandomNonZero(t *testing.T) {
	f := testField(t)
	for i := 0; i < 32; i++ {
		e, err := f.RandomNonZero(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if e.IsZero() {
			t.Fatal("RandomNonZero returned zero")
		}
	}
}

func TestImmutability(t *testing.T) {
	f := testField(t)
	a := f.FromInt64(7)
	b := f.FromInt64(11)
	_ = a.Add(b)
	_ = a.Mul(b)
	_ = a.Neg()
	_ = a.Square()
	if !a.Equal(f.FromInt64(7)) || !b.Equal(f.FromInt64(11)) {
		t.Fatal("arithmetic mutated its operands")
	}
	// BigInt must return a copy.
	v := a.BigInt()
	v.SetInt64(999)
	if !a.Equal(f.FromInt64(7)) {
		t.Fatal("BigInt exposed internal state")
	}
}
