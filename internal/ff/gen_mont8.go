//go:build ignore

// Command gen_mont8 emits the unrolled CIOS Montgomery multiplication
// for 8-limb (512-bit) moduli — the bf80 deployment hot path — in two
// forms:
//
//   - mont8.go: portable pure-Go unrolling (montMul8Go). Go cannot keep
//     two carry chains in the one flags register, so this version spills;
//     it is the fallback for non-amd64 and pre-ADX processors. Beside it
//     sit modAdd8 and modSub8, one carry chain each, so Go is enough.
//   - mont8_amd64.s: MULX/ADCX/ADOX assembly (montMul8ADX) that runs the
//     product chain in OF and the carry-propagation chain in CF
//     simultaneously, with the nine accumulator limbs held in registers.
//
// Regenerate with:
//
//	go run gen_mont8.go
//
// The emitted algorithm is identical to montMulN specialized to n = 8:
// per outer round, accumulate x·y[i] into t, then fold in q·m with
// q = t[0]·(−m⁻¹ mod 2⁶⁴) and shift one limb; finish with one
// borrow-masked conditional subtraction. See limb.go for the bound
// analysis (t stays below 2m, so a single top limb t8 ∈ {0,1}, plus a
// transient inter-phase carry bit c2, suffices).
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
)

func main() {
	genGo()
	genAsm()
}

func genGo() {
	var b bytes.Buffer
	w := func(f string, a ...any) { fmt.Fprintf(&b, f+"\n", a...) }

	w("// Code generated by gen_mont8.go. DO NOT EDIT.")
	w("")
	w("package ff")
	w("")
	w(`import "math/bits"`)
	w("")
	w("// montMul8Go sets z = x·y·R⁻¹ mod m for an 8-limb odd modulus m with")
	w("// minv = −m⁻¹ mod 2⁶⁴. Inputs must be < m; the output is < m and only")
	w("// limbs 0–7 of z are written, after the last read of x and y: z may alias")
	w("// either or both. Fully unrolled CIOS; constant-time.")
	w("func montMul8Go(z, x, y, m *limbs, minv uint64) {")
	w("\tvar t0, t1, t2, t3, t4, t5, t6, t7, t8 uint64")
	w("\tvar c, c2, cc, hi, lo, q, yi uint64")
	for i := 0; i < 8; i++ {
		w("")
		w("\t// round %d", i)
		w("\tyi = y[%d]", i)
		if i == 0 {
			w("\thi, t0 = bits.Mul64(x[0], yi)")
			w("\tc = hi")
			for j := 1; j < 8; j++ {
				w("\thi, lo = bits.Mul64(x[%d], yi)", j)
				w("\tt%d, cc = bits.Add64(lo, c, 0)", j)
				w("\tc = hi + cc")
			}
			w("\tt8 = c")
		} else {
			w("\thi, lo = bits.Mul64(x[0], yi)")
			w("\tt0, cc = bits.Add64(t0, lo, 0)")
			w("\tc = hi + cc")
			for j := 1; j < 8; j++ {
				w("\thi, lo = bits.Mul64(x[%d], yi)", j)
				w("\tlo, cc = bits.Add64(lo, c, 0)")
				w("\thi += cc")
				w("\tt%d, cc = bits.Add64(t%d, lo, 0)", j, j)
				w("\tc = hi + cc")
			}
			w("\tt8, c2 = bits.Add64(t8, c, 0)")
		}
		w("\tq = t0 * minv")
		w("\thi, lo = bits.Mul64(q, m[0])")
		w("\t_, cc = bits.Add64(lo, t0, 0)")
		w("\tc = hi + cc")
		for j := 1; j < 8; j++ {
			w("\thi, lo = bits.Mul64(q, m[%d])", j)
			w("\tlo, cc = bits.Add64(lo, c, 0)")
			w("\thi += cc")
			w("\tt%d, cc = bits.Add64(t%d, lo, 0)", j-1, j)
			w("\tc = hi + cc")
		}
		w("\tt7, cc = bits.Add64(t8, c, 0)")
		if i == 0 {
			w("\tt8 = cc")
		} else {
			w("\tt8 = c2 + cc")
		}
	}
	w("")
	w("\t// Conditional subtraction into [0, m): subtract when the top limb")
	w("\t// is set or no borrow occurred, selected by mask without branching.")
	w("\tvar d0, d1, d2, d3, d4, d5, d6, d7, bb uint64")
	w("\td0, bb = bits.Sub64(t0, m[0], 0)")
	for j := 1; j < 8; j++ {
		w("\td%d, bb = bits.Sub64(t%d, m[%d], bb)", j, j, j)
	}
	w("\tmask := -(t8 | (bb ^ 1))")
	for j := 0; j < 8; j++ {
		w("\tz[%d] = t%d ^ (mask & (t%d ^ d%d))", j, j, j, j)
	}
	w("}")

	// SetAdd's and SetSub's limb loops specialized to n = 8.
	each := func(f string) { // one line per limb; %[1]d is the limb index
		for j := 0; j < 8; j++ {
			w(f, j)
		}
	}
	w("")
	w("// modAdd8 sets z = x + y mod m for an 8-limb modulus m and x, y < m: the")
	w("// sum, then m subtracted under a mask when the sum carried out of limb 7")
	w("// or reached m. The carry term matters when m fills all 512 bits (bf80),")
	w("// where x + y can exceed 2⁵¹². z may alias x, y or both; constant-time.")
	w("func modAdd8(z, x, y, m *limbs) {")
	w("\tvar s0, s1, s2, s3, s4, s5, s6, s7, d0, d1, d2, d3, d4, d5, d6, d7, c, b uint64")
	each("\ts%[1]d, c = bits.Add64(x[%[1]d], y[%[1]d], c)")
	each("\td%[1]d, b = bits.Sub64(s%[1]d, m[%[1]d], b)")
	w("\tmask := -(c | (b ^ 1))")
	each("\tz[%[1]d] = s%[1]d ^ (mask & (s%[1]d ^ d%[1]d))")
	w("}")
	w("")
	w("// modSub8 sets z = x − y mod m for an 8-limb modulus m and x, y < m: the")
	w("// difference, then m added back under the borrow mask. z may alias x, y")
	w("// or both; constant-time.")
	w("func modSub8(z, x, y, m *limbs) {")
	w("\tvar d0, d1, d2, d3, d4, d5, d6, d7, b, c uint64")
	each("\td%[1]d, b = bits.Sub64(x[%[1]d], y[%[1]d], b)")
	w("\tmask := -b")
	w("\t// Masked before the chain: an AND between two ADCs clobbers the carry.")
	w("\ta0, a1, a2, a3, a4, a5, a6, a7 := m[0]&mask, m[1]&mask, m[2]&mask, m[3]&mask, m[4]&mask, m[5]&mask, m[6]&mask, m[7]&mask")
	each("\tz[%[1]d], c = bits.Add64(d%[1]d, a%[1]d, c)")
	w("}")

	src, err := format.Source(b.Bytes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "gofmt:", err)
		src = b.Bytes()
	}
	if err := os.WriteFile("mont8.go", src, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// genAsm emits mont8_amd64.s. Register plan for montMul8ADX:
//
//	R8..R15 = t0..t7   BX = t8   SI = &x (then &z)   DI = &m
//	DX      = MULX multiplicand (y[i], then q)
//	AX, BP, CX rotate as MULX lo/hi outputs and zero sources
//	c2-8(SP) holds the inter-phase carry bit of each round
//
// The accumulate phase runs the "t[j] += lo" additions on the OF chain
// (ADOX) and the "lo += previous hi" propagation on the CF chain (ADCX);
// the reduce phase runs "t[j] + lo" on CF and "+ previous hi" on OF,
// writing each sum one limb down to realize the >>64 shift.
func genAsm() {
	var b bytes.Buffer
	w := func(f string, a ...any) { fmt.Fprintf(&b, f+"\n", a...) }

	w("// Code generated by gen_mont8.go. DO NOT EDIT.")
	w("")
	w("//go:build amd64")
	w("")
	w(`#include "textflag.h"`)
	w("")
	w("// func montMul8ADX(z, x, y, m *limbs, minv uint64)")
	w("// z is first touched by the final conditional subtraction, so it may alias")
	w("// x, y or both.")
	w("TEXT ·montMul8ADX(SB), NOSPLIT, $8-40")
	w("\tMOVQ x+8(FP), SI")
	w("\tMOVQ m+24(FP), DI")
	t := []string{"R8", "R9", "R10", "R11", "R12", "R13", "R14", "R15"}
	hi := func(j int) string { // alternating hi-part carrier
		if j%2 == 0 {
			return "BP"
		}
		return "CX"
	}
	for r := 0; r < 8; r++ {
		w("")
		w("\t// round %d: t += x·y[%d]", r, r)
		w("\tMOVQ y+16(FP), DX")
		w("\tMOVQ %d(DX), DX", 8*r)
		if r == 0 {
			// t is zero: the product chain seeds it directly.
			w("\tMULXQ 0(SI), %s, %s", t[0], hi(0))
			for j := 1; j < 8; j++ {
				w("\tMULXQ %d(SI), %s, %s", 8*j, t[j], hi(j))
				if j == 1 {
					w("\tADDQ %s, %s", hi(j-1), t[j])
				} else {
					w("\tADCQ %s, %s", hi(j-1), t[j])
				}
			}
			w("\tMOVQ $0, BX")
			w("\tADCQ %s, BX", hi(7))
		} else {
			w("\tXORQ AX, AX") // clear CF and OF
			w("\tMULXQ 0(SI), AX, %s", hi(0))
			w("\tADOXQ AX, %s", t[0])
			for j := 1; j < 8; j++ {
				w("\tMULXQ %d(SI), AX, %s", 8*j, hi(j))
				w("\tADCXQ %s, AX", hi(j-1))
				w("\tADOXQ AX, %s", t[j])
			}
			w("\tMOVQ $0, AX")
			w("\tADCXQ AX, %s", hi(7))
			w("\tADOXQ %s, BX", hi(7))
			w("\tMOVQ $0, CX")
			w("\tADOXQ CX, CX")
			w("\tMOVQ CX, c2-8(SP)")
		}
		w("")
		w("\t// round %d: t = (t + q·m) >> 64", r)
		w("\tMOVQ minv+32(FP), DX")
		w("\tIMULQ %s, DX", t[0])
		w("\tXORQ CX, CX")
		w("\tMULXQ 0(DI), AX, %s", hi(0))
		w("\tADCXQ %s, AX", t[0])
		for j := 1; j < 8; j++ {
			w("\tMULXQ %d(DI), AX, %s", 8*j, hi(j))
			w("\tADCXQ %s, AX", t[j])
			w("\tADOXQ %s, AX", hi(j-1))
			w("\tMOVQ AX, %s", t[j-1])
		}
		w("\tMOVQ $0, AX")
		w("\tADOXQ AX, %s", hi(7))
		w("\tADCXQ BX, %s", hi(7))
		w("\tMOVQ %s, %s", hi(7), t[7])
		w("\tMOVQ $0, BX")
		w("\tADCXQ BX, BX")
		if r > 0 {
			w("\tADDQ c2-8(SP), BX")
		}
	}
	w("")
	w("\t// conditional subtraction: z = t − m when t8 is set or t ≥ m")
	w("\tMOVQ z+0(FP), SI")
	for j := 0; j < 8; j++ {
		w("\tMOVQ %s, %d(SI)", t[j], 8*j)
	}
	w("\tSUBQ 0(DI), R8")
	for j := 1; j < 8; j++ {
		w("\tSBBQ %d(DI), %s", 8*j, t[j])
	}
	w("\tSBBQ AX, AX") // AX = −borrow
	w("\tNOTQ AX")     // select d when no borrow…
	w("\tNEGQ BX")     // …or when the top limb is set
	w("\tORQ BX, AX")
	w("\tTESTQ AX, AX")
	for j := 0; j < 8; j++ {
		w("\tCMOVQEQ %d(SI), %s", 8*j, t[j])
		w("\tMOVQ %s, %d(SI)", t[j], 8*j)
	}
	w("\tRET")
	w("")
	w("// func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)")
	w("TEXT ·cpuidx(SB), NOSPLIT, $0-24")
	w("\tMOVL eaxIn+0(FP), AX")
	w("\tMOVL ecxIn+4(FP), CX")
	w("\tCPUID")
	w("\tMOVL AX, eax+8(FP)")
	w("\tMOVL BX, ebx+12(FP)")
	w("\tMOVL CX, ecx+16(FP)")
	w("\tMOVL DX, edx+20(FP)")
	w("\tRET")

	if err := os.WriteFile("mont8_amd64.s", b.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
