package ff

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Field describes a prime field F_p with fixed-limb Montgomery internals.
// A Field value is immutable after construction and safe for concurrent
// use. math/big appears only at the public construction/serialization
// boundary (NewField, NewElement, BigInt, the public exponents); every
// arithmetic path between those boundaries runs on [MaxLimbs]uint64
// arrays with value-independent control flow — see DESIGN.md §14 for the
// per-function constant-time contract.
type Field struct {
	p       *big.Int // the prime modulus
	n       int      // limb count, public
	byteLen int

	pl  limbs  // p, little-endian limbs
	m0  uint64 // −p⁻¹ mod 2⁶⁴, the Montgomery reduction factor
	r2  limbs  // R² mod p, R = 2^(64n); toMont multiplier
	one limbs  // R mod p, the Montgomery form of 1

	// Public exponents driving the fixed powering chains. Exponent bits
	// are read branch-by-branch, which is fine precisely because the
	// modulus (and so each of these) is public.
	pMinus2     *big.Int // Fermat inversion exponent
	pMinus1Div2 *big.Int // (p−1)/2, exponent of the Euler criterion
	pPlus1Div4  *big.Int // (p+1)/4, square-root exponent for p ≡ 3 (mod 4)
}

// NewField constructs the prime field F_p. p must be an odd prime with
// p ≡ 3 (mod 4) and at most 64·MaxLimbs bits; primality is the caller's
// responsibility (parameter sets are generated offline and verified by
// tests), but the congruence is checked here because the F_p²
// construction and modular square root both depend on it.
func NewField(p *big.Int) (*Field, error) {
	if p == nil || p.Sign() <= 0 {
		return nil, errors.New("ff: modulus must be a positive integer")
	}
	if p.Bit(0) == 0 || p.Bit(1) == 0 {
		return nil, fmt.Errorf("ff: modulus must be ≡ 3 (mod 4), got low bits %d%d", p.Bit(1), p.Bit(0))
	}
	if p.BitLen() > 64*MaxLimbs {
		return nil, fmt.Errorf("ff: modulus of %d bits exceeds the %d-bit limb budget", p.BitLen(), 64*MaxLimbs)
	}
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(p, one)
	pp1 := new(big.Int).Add(p, one)
	f := &Field{
		p:           new(big.Int).Set(p),
		n:           (p.BitLen() + 63) / 64,
		byteLen:     (p.BitLen() + 7) / 8,
		pMinus2:     new(big.Int).Sub(p, big.NewInt(2)),
		pMinus1Div2: new(big.Int).Rsh(pm1, 1),
		pPlus1Div4:  new(big.Int).Rsh(pp1, 2),
	}
	f.pl = f.limbsOfBig(p)
	// m0 = −p⁻¹ mod 2⁶⁴ by Newton iteration: p0 is its own inverse mod 8,
	// and each step doubles the correct low bits.
	inv := f.pl[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.pl[0]*inv
	}
	f.m0 = -inv
	r := new(big.Int).Lsh(one, uint(64*f.n))
	f.one = f.limbsOfBig(new(big.Int).Mod(r, p))
	f.r2 = f.limbsOfBig(new(big.Int).Mod(new(big.Int).Mul(r, r), p))
	return f, nil
}

// MustField is NewField that panics on error; intended for package-level
// initialization of vetted parameter sets.
func MustField(p *big.Int) *Field {
	f, err := NewField(p)
	if err != nil {
		panic(err)
	}
	return f
}

// limbsOfBig converts a canonical value in [0, p) to little-endian limbs.
// Construction-time helper; v must be public.
func (f *Field) limbsOfBig(v *big.Int) limbs {
	var buf [8 * MaxLimbs]byte
	v.FillBytes(buf[:8*f.n])
	return limbsOfBytes(buf[:8*f.n])
}

// limbsOfBytes parses big-endian bytes (any length ≤ 8·MaxLimbs) into
// little-endian limbs, in constant time for a given length.
func limbsOfBytes(b []byte) limbs {
	var l limbs
	for i := 0; i < len(b); i++ {
		j := len(b) - 1 - i
		l[i/8] |= uint64(b[j]) << (8 * (i % 8))
	}
	return l
}

// P returns a copy of the modulus.
func (f *Field) P() *big.Int { return new(big.Int).Set(f.p) }

// BitLen returns the bit length of the modulus.
func (f *Field) BitLen() int { return f.p.BitLen() }

// ByteLen returns the length of the fixed-width byte encoding of an element.
func (f *Field) ByteLen() int { return f.byteLen }

// Limbs returns the public limb count of the field.
func (f *Field) Limbs() int { return f.n }

// Element is a residue in F_p, held in Montgomery form (v = a·R mod p).
// The zero value is usable only as the destination of a Set method (so is
// any element of the same field); construct operands through a Field. The
// fixed-size array keeps every intermediate off the heap.
//
// Arithmetic has one body per operation, in destination-receiver form:
// z.SetMul(x, y) writes x·y into z and touches only the field's n limbs
// of it, so nothing MaxLimbs wide is copied, zeroed or returned. z may
// alias x, y or both in every Set method. The value methods (Mul, Add, …)
// are one-line wrappers for cold paths, where returning 136 bytes is not
// worth a temporary's name; the curve and pairing kernels use the Set form.
type Element struct {
	f *Field
	v limbs
}

// toMont enters the Montgomery domain: a ↦ a·R = montMul(a, R²).
func (f *Field) toMont(a *limbs) limbs {
	var z limbs
	montMul(&z, a, &f.r2, &f.pl, f.m0, f.n)
	return z
}

// fromMont leaves the Montgomery domain: a·R ↦ a = montMul(a·R, 1).
func (f *Field) fromMont(a *limbs) limbs {
	var z, one limbs
	one[0] = 1
	montMul(&z, a, &one, &f.pl, f.m0, f.n)
	return z
}

// NewElement returns the element v mod p. The big.Int reduction is
// variable-time in v; secrets must enter the field through FromBytes or
// stay inside limb arithmetic.
func (f *Field) NewElement(v *big.Int) Element {
	r := new(big.Int).Mod(v, f.p)
	l := f.limbsOfBig(r)
	return Element{f: f, v: f.toMont(&l)}
}

// FromInt64 returns the element for a small signed integer.
func (f *Field) FromInt64(v int64) Element { return f.NewElement(big.NewInt(v)) }

// Zero returns the additive identity.
func (f *Field) Zero() Element { return Element{f: f} }

// One returns the multiplicative identity.
func (f *Field) One() Element { return Element{f: f, v: f.one} }

// Random returns a uniformly random element, reading entropy from r.
func (f *Field) Random(r io.Reader) (Element, error) {
	v, err := rand.Int(r, f.p)
	if err != nil {
		return Element{}, fmt.Errorf("ff: random element: %w", err)
	}
	l := f.limbsOfBig(v)
	return Element{f: f, v: f.toMont(&l)}, nil
}

// RandomNonZero returns a uniformly random non-zero element.
func (f *Field) RandomNonZero(r io.Reader) (Element, error) {
	for {
		e, err := f.Random(r)
		if err != nil {
			return Element{}, err
		}
		if !e.IsZero() {
			return e, nil
		}
	}
}

// FromBytes decodes a fixed-width big-endian encoding produced by Bytes.
// Inputs of the wrong length or encoding a value ≥ p are rejected. The
// value itself is handled in constant time; only the accept/reject
// outcome branches, and that bit is inherent in the API.
func (f *Field) FromBytes(b []byte) (Element, error) {
	if len(b) != f.byteLen {
		return Element{}, fmt.Errorf("ff: element encoding must be %d bytes, got %d", f.byteLen, len(b))
	}
	l := limbsOfBytes(b)
	if geN(&l, &f.pl, f.n) == 1 {
		return Element{}, errors.New("ff: element encoding out of range")
	}
	return Element{f: f, v: f.toMont(&l)}, nil
}

// Field returns the field the element belongs to.
func (e Element) Field() *Field { return e.f }

// BigInt returns a copy of the canonical representative in [0, p).
// Variable-time: converting a secret back into math/big re-enters the
// timing-debt world and is flagged by mwslint's ctflow analyzer.
func (e Element) BigInt() *big.Int { return new(big.Int).SetBytes(e.Bytes()) }

// Bytes returns the fixed-width big-endian encoding of the element, in
// constant time.
func (e Element) Bytes() []byte {
	c := e.f.fromMont(&e.v)
	out := make([]byte, e.f.byteLen)
	for i := 0; i < e.f.byteLen; i++ {
		out[e.f.byteLen-1-i] = byte(c[i/8] >> (8 * (i % 8)))
	}
	return out
}

// IsZero reports whether e is the additive identity, in constant time.
func (e Element) IsZero() bool { return iszeroN(&e.v, e.f.n) == 1 }

// IsZeroBit returns 1 when e is zero and 0 otherwise. Unlike IsZero it
// never materializes a branchable bool, so callers can fold the result
// into constant-time masks (see ec's branch-free unified addition).
func (e *Element) IsZeroBit() uint64 { return iszeroN(&e.v, e.f.n) }

// IsOne reports whether e is the multiplicative identity, in constant time.
func (e Element) IsOne() bool { return eqN(&e.v, &e.f.one, e.f.n) == 1 }

// Equal reports whether e == x, in constant time. (Montgomery forms are
// equal exactly when the values are.)
func (e Element) Equal(x Element) bool { return eqN(&e.v, &x.v, e.f.n) == 1 }

// SetAdd sets z = x + y: the sum, then p subtracted under a mask when it
// carried out or reached p.
func (z *Element) SetAdd(x, y *Element) {
	f := x.f
	z.f = f
	c := addN(&z.v, &x.v, &y.v, f.n)
	subMaskedN(&z.v, &f.pl, c|geN(&z.v, &f.pl, f.n), f.n)
}

// SetDouble sets z = 2x.
func (z *Element) SetDouble(x *Element) { z.SetAdd(x, x) }

// SetSub sets z = x − y: the difference, then p added back under a mask
// when it borrowed.
func (z *Element) SetSub(x, y *Element) {
	f := x.f
	z.f = f
	addMaskedN(&z.v, &f.pl, subN(&z.v, &x.v, &y.v, f.n), f.n)
}

// SetNeg sets z = −x: p − x, masked to zero when x is zero.
func (z *Element) SetNeg(x *Element) {
	f := x.f
	z.f = f
	keep := iszeroN(&x.v, f.n) - 1 // all ones unless x == 0
	subN(&z.v, &f.pl, &x.v, f.n)
	for i := 0; i < f.n; i++ {
		z.v[i] &= keep
	}
}

// SetMul sets z = x · y.
func (z *Element) SetMul(x, y *Element) {
	f := x.f
	z.f = f
	montMul(&z.v, &x.v, &y.v, &f.pl, f.m0, f.n)
}

// SetSquare sets z = x².
func (z *Element) SetSquare(x *Element) { z.SetMul(x, x) }

// SetSelect sets z = a when v == 1 and z = b when v == 0, in constant
// time. Both operands must belong to the same field. It is the building
// block for the masked table scans in ec and pairing (Joye–Tunstall digit
// selection, GT exponentiation), replacing secret-indexed loads.
func (z *Element) SetSelect(v uint64, a, b *Element) {
	z.f = b.f
	cselN(&z.v, v, &a.v, &b.v, b.f.n)
}

// Add returns e + x.
func (e Element) Add(x Element) Element { e.SetAdd(&e, &x); return e }

// Sub returns e − x.
func (e Element) Sub(x Element) Element { e.SetSub(&e, &x); return e }

// Neg returns −e.
func (e Element) Neg() Element { e.SetNeg(&e); return e }

// Mul returns e · x.
func (e Element) Mul(x Element) Element { e.SetMul(&e, &x); return e }

// Square returns e².
func (e Element) Square() Element { e.SetMul(&e, &e); return e }

// Double returns 2e.
func (e Element) Double() Element { e.SetAdd(&e, &e); return e }

// expMont raises a Montgomery-form base to a public exponent with a fixed
// 4-bit window: the square/multiply schedule depends only on the exponent
// (all of which — p−2, (p±1)/…, caller-supplied public k — are public),
// never on the base.
func (f *Field) expMont(base *limbs, k *big.Int) limbs {
	if k.Sign() == 0 {
		return f.one
	}
	var tbl [16]limbs
	tbl[0] = f.one
	tbl[1] = *base
	for i := 2; i < 16; i++ {
		montMul(&tbl[i], &tbl[i-1], base, &f.pl, f.m0, f.n)
	}
	windows := (k.BitLen() + 3) / 4
	r := f.one
	for w := windows - 1; w >= 0; w-- {
		if w != windows-1 {
			for s := 0; s < 4; s++ {
				montMul(&r, &r, &r, &f.pl, f.m0, f.n)
			}
		}
		idx := k.Bit(4*w+3)<<3 | k.Bit(4*w+2)<<2 | k.Bit(4*w+1)<<1 | k.Bit(4*w)
		if idx != 0 {
			montMul(&r, &r, &tbl[idx], &f.pl, f.m0, f.n)
		}
	}
	return r
}

// Inv returns e⁻¹ by Fermat inversion (e^(p−2), a fixed chain driven by
// the public modulus — constant-time in e, unlike the extended-Euclidean
// ModInverse it replaces). It panics if e is zero, mirroring integer
// division by zero: inverting zero is always a programming error at call
// sites.
func (e Element) Inv() Element {
	if e.IsZero() {
		panic("ff: inverse of zero")
	}
	return Element{f: e.f, v: e.f.expMont(&e.v, e.f.pMinus2)}
}

// Exp returns e^k for a non-negative exponent k. Constant-time in the
// base; variable-time in the exponent, so secret exponents must use the
// constant-schedule paths (pairing.GTExpSecret, ec.ScalarMultSecret).
func (e Element) Exp(k *big.Int) Element {
	return Element{f: e.f, v: e.f.expMont(&e.v, k)}
}

// Legendre returns the Legendre symbol (e/p): 1 if e is a non-zero square,
// −1 if a non-square, 0 if e is zero. The Euler-criterion powering is
// constant-time in e; only the trichotomy result branches.
func (e Element) Legendre() int {
	if e.IsZero() {
		return 0
	}
	r := e.f.expMont(&e.v, e.f.pMinus1Div2)
	if eqN(&r, &e.f.one, e.f.n) == 1 {
		return 1
	}
	return -1
}

// Sqrt returns a square root of e and true, or the zero element and false
// if e is a non-residue. With p ≡ 3 (mod 4) the root is e^((p+1)/4),
// computed by the fixed public-exponent chain; the residuosity outcome is
// the function's result and therefore inherently visible.
func (e Element) Sqrt() (Element, bool) {
	if e.IsZero() {
		return e, true
	}
	r := e.f.expMont(&e.v, e.f.pPlus1Div4)
	var chk limbs
	montMul(&chk, &r, &r, &e.f.pl, e.f.m0, e.f.n)
	// Verify: r² == e. For non-residues the exponentiation yields a root of −e.
	if eqN(&chk, &e.v, e.f.n) != 1 {
		return e.f.Zero(), false
	}
	return Element{f: e.f, v: r}, true
}

// String implements fmt.Stringer with a hex rendering.
func (e Element) String() string { return "0x" + e.BigInt().Text(16) }
