package ff

import "math/bits"

// Fixed-size limb arithmetic backing Field/Element. Every value is a
// little-endian [MaxLimbs]uint64 of which only the field's first n limbs
// are meaningful (the rest stay zero, because no routine here reads or
// writes past n); n is a public property of the modulus, so loops bounded
// by it are data-independent. Every routine that writes a z may be handed
// a z that aliases any of its inputs. All routines in
// this file are constant-time with respect to limb *values*: no branch,
// memory index, or loop bound depends on them. The only inputs that may
// steer control flow are the limb count n, the modulus-fixed divstep batch
// count of the safegcd inversion (inv.go) and, in expMont, the bits of a
// public exponent.

// MaxLimbs is the widest supported modulus: 16×64 = 1024 bits, sized for
// the bf112 preset. Using a fixed array keeps elements off the heap —
// math/big allocated on nearly every operation, which dominated the old
// profile as much as the limb loops themselves.
const MaxLimbs = 16

type limbs = [MaxLimbs]uint64

// addN sets z = x + y over n limbs and returns the carry-out (0 or 1).
// z may alias x or y.
func addN(z, x, y *limbs, n int) uint64 {
	var c uint64
	for i := 0; i < n; i++ {
		z[i], c = bits.Add64(x[i], y[i], c)
	}
	return c
}

// subN sets z = x − y over n limbs and returns the borrow-out (0 or 1).
// z may alias x or y.
func subN(z, x, y *limbs, n int) uint64 {
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	return b
}

// geN returns 1 when x ≥ y over n limbs, else 0: the complement of the
// borrow of x − y, with nothing stored.
func geN(x, y *limbs, n int) uint64 {
	var b uint64
	for i := 0; i < n; i++ {
		_, b = bits.Sub64(x[i], y[i], b)
	}
	return b ^ 1
}

// addMaskedN sets z = z + y when v == 1 and leaves z when v == 0, without
// branching on v; the carry-out is dropped (callers add p back after a
// borrow, which cancels it).
func addMaskedN(z, y *limbs, v uint64, n int) {
	m := -(v & 1)
	var c uint64
	for i := 0; i < n; i++ {
		z[i], c = bits.Add64(z[i], y[i]&m, c)
	}
}

// subMaskedN sets z = z − y when v == 1 and leaves z when v == 0, without
// branching on v; the borrow-out is dropped (callers subtract p from a
// sum that reached it, carry included).
func subMaskedN(z, y *limbs, v uint64, n int) {
	m := -(v & 1)
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(z[i], y[i]&m, b)
	}
}

// cselN sets z = a when v == 1 and z = b when v == 0, without branching
// on v. z may alias a or b.
func cselN(z *limbs, v uint64, a, b *limbs, n int) {
	m := -(v & 1)
	for i := 0; i < n; i++ {
		z[i] = b[i] ^ (m & (a[i] ^ b[i]))
	}
}

// iszeroN returns 1 when the first n limbs of x are all zero, else 0.
func iszeroN(x *limbs, n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc |= x[i]
	}
	return nonzeroToMask(acc) + 1 // mask is ^0 when acc != 0
}

// eqN returns 1 when x == y over n limbs, else 0.
func eqN(x, y *limbs, n int) uint64 {
	var acc uint64
	for i := 0; i < n; i++ {
		acc |= x[i] ^ y[i]
	}
	return nonzeroToMask(acc) + 1
}

// nonzeroToMask returns ^uint64(0) when v != 0 and 0 when v == 0.
func nonzeroToMask(v uint64) uint64 {
	return -((v | -v) >> 63)
}

// montMulN sets z = x·y·R⁻¹ mod m (CIOS Montgomery multiplication) for
// an n-limb odd modulus m with m0 = −m⁻¹ mod 2⁶⁴. Inputs must be < m;
// the output is < m. z may alias x, y or both: like the two 8-limb
// kernels it accumulates in t and stores to z only after the last read of
// its operands.
func montMulN(z, x, y, m *limbs, m0 uint64, n int) {
	var t [MaxLimbs + 1]uint64
	var tn uint64 // t[n], the accumulator's top limb
	for i := 0; i < n; i++ {
		// t += x * y[i]
		var c uint64
		yi := y[i]
		for j := 0; j < n; j++ {
			hi, lo := bits.Mul64(x[j], yi)
			var cc uint64
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j] = lo
			c = hi
		}
		var c2 uint64
		tn, c2 = bits.Add64(tn, c, 0)

		// t = (t + q·m) >> 64 with q chosen so the low limb cancels.
		q := t[0] * m0
		hi, lo := bits.Mul64(q, m[0])
		_, cc := bits.Add64(lo, t[0], 0)
		c = hi + cc
		for j := 1; j < n; j++ {
			hi, lo := bits.Mul64(q, m[j])
			var c3 uint64
			lo, c3 = bits.Add64(lo, t[j], 0)
			hi += c3
			lo, c3 = bits.Add64(lo, c, 0)
			hi += c3
			t[j-1] = lo
			c = hi
		}
		t[n-1], cc = bits.Add64(tn, c, 0)
		tn = c2 + cc
	}
	// One conditional subtraction brings the result into [0, m).
	tl := (*limbs)(t[:MaxLimbs])
	b := subN(z, tl, m, n)
	cselN(z, tn|(b^1), z, tl, n)
}

// montMul dispatches to the specialized width when available; montMul8
// (generated by gen_mont8.go into mont8.go) covers the 512-bit bf80
// deployment hot path.
func montMul(z, x, y, m *limbs, m0 uint64, n int) {
	if n == 8 {
		montMul8(z, x, y, m, m0)
		return
	}
	montMulN(z, x, y, m, m0, n)
}
