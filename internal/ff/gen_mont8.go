//go:build ignore

// Command gen_mont8 emits the unrolled CIOS Montgomery multiplication
// for 8-limb (512-bit) moduli — the bf80 deployment hot path — in two
// forms, and the AVX-512 IFMA lane kernel beside them:
//
//   - mont8.go: portable pure-Go unrolling (montMul8Go). Go cannot keep
//     two carry chains in the one flags register, so this version spills;
//     it is the fallback for non-amd64 and pre-ADX processors. Beside it
//     sit modAdd8 and modSub8, one carry chain each, so Go is enough.
//   - mont8_amd64.s: MULX/ADCX/ADOX assembly (montMul8ADX) that runs the
//     product chain in OF and the carry-propagation chain in CF
//     simultaneously, with the nine accumulator limbs held in registers.
//   - mont8_amd64.s also holds the lane kernel (laneMulIFMA and its
//     siblings, see lane.go): eight elements of any field of at most 8
//     limbs, limb-major in ten 52-bit limbs, multiplied, added and
//     subtracted eight at a time with VPMADD52LUQ/VPMADD52HUQ.
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
	genLaneAsm(w)
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
	w("")
	w("// func xgetbv() (eax, edx uint32)")
	w("TEXT ·xgetbv(SB), NOSPLIT, $0-8")
	w("\tMOVL $0, CX")
	w("\tXGETBV")
	w("\tMOVL AX, eax+0(FP)")
	w("\tMOVL DX, edx+4(FP)")
	w("\tRET")

	if err := os.WriteFile("mont8_amd64.s", b.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// The lane kernel's registers. A lane vector (ff.Lanes) is ten ZMM words,
// limb i of all eight lanes at offset 64·i; a LaneConst is ten scalar
// limbs, broadcast to every lane; laneMod holds p's ten limbs at 0–72 and
// −p⁻¹ mod 2⁵² at 80.
//
//	Z0–Z9   x's limbs, then the subtraction's d limbs
//	Z10–Z19 the accumulator t, renamed one limb down per round
//	Z20     y[i], the round's multiplier
//	Z21     q, the round's Montgomery quotient
//	Z22     −p⁻¹ mod 2⁵² in every lane
//	Z23     carries and the final sign mask
//	Z24     2⁵² − 1 in every lane
//	Z25     p's limb masked by the sign (subtraction)
//	SI, DX, DI, R8 = &x, &y, &m, &z
func genLaneAsm(w func(string, ...any)) {
	z := func(i int) string { return fmt.Sprintf("Z%d", i) }
	prologue := func(name, yType string) {
		w("")
		w("// func %s(z, x *Lanes, y *%s, m *laneMod)", name, yType)
		w("TEXT ·%s(SB), NOSPLIT, $0-32", name)
		w("\tMOVQ z+0(FP), R8")
		w("\tMOVQ x+8(FP), SI")
		w("\tMOVQ y+16(FP), DX")
		w("\tMOVQ m+24(FP), DI")
		w("\tMOVQ $0xfffffffffffff, AX")
		w("\tVPBROADCASTQ AX, Z24")
	}
	// carry propagates limb j's excess above 52 bits into limb j+1, for
	// j = 0…8, leaving limbs 0–8 in [0, 2⁵²). shift is VPSRLQ for
	// non-negative limbs and VPSRAQ when a limb may have borrowed.
	carry := func(t []string, shift string) {
		for j := 0; j < 9; j++ {
			w("\t%s $52, %s, Z23", shift, t[j])
			w("\tVPANDQ Z24, %s, %s", t[j], t[j])
			w("\tVPADDQ Z23, %s, %s", t[j+1], t[j+1])
		}
	}
	// reduceStore stores t − p where that is non-negative and t otherwise:
	// t is normalised and below 2p, so the result is t mod p.
	reduceStore := func(t []string) {
		w("\tVPSUBQ.BCST 0(DI), %s, Z0", t[0])
		for j := 1; j < 10; j++ {
			w("\tVPSRAQ $52, %s, Z23", z(j-1))
			w("\tVPANDQ Z24, %s, %s", z(j-1), z(j-1))
			w("\tVPSUBQ.BCST %d(DI), %s, %s", 8*j, t[j], z(j))
			w("\tVPADDQ Z23, %s, %s", z(j), z(j))
		}
		w("\tVPSRAQ $63, Z9, Z23")
		w("\tVPTESTMQ Z23, Z23, K1") // lanes where t < p keep t
		for j := 0; j < 10; j++ {
			w("\tVPBLENDMQ %s, %s, K1, %s", t[j], z(j), z(j))
			w("\tVMOVDQU64 %s, %d(R8)", z(j), 64*j)
		}
		w("\tVZEROUPPER")
		w("\tRET")
	}

	// Multiplication, word-by-word Montgomery in radix 2⁵²: per round,
	// t += x·y[i] + q·p with q = t₀·(−p⁻¹) mod 2⁵², whose low halves land
	// on limb j and high halves on limb j+1; t₀ is then divisible by 2⁵²,
	// so its carry moves up and the limbs rename one down (the >>52).
	// Each limb collects at most four 52-bit halves a round, so after ten
	// rounds every limb is below 2⁵⁸. t < 2p because x, y < p < R/4.
	// y[i] is a ZMM word 64 bytes apart, or a scalar limb 8 bytes apart
	// broadcast to every lane.
	for _, v := range []struct {
		name, yType, load string
		stride            int
	}{
		{"laneMulIFMA", "Lanes", "VMOVDQU64 %d(DX), Z20", 64},
		{"laneMulConstIFMA", "LaneConst", "VPBROADCASTQ %d(DX), Z20", 8},
	} {
		prologue(v.name, v.yType)
		w("\tVPBROADCASTQ 80(DI), Z22")
		for j := 0; j < 10; j++ {
			w("\tVMOVDQU64 %d(SI), %s", 64*j, z(j))
			w("\tVPXORQ %s, %s, %s", z(10+j), z(10+j), z(10+j))
		}
		t := make([]string, 10)
		for j := range t {
			t[j] = z(10 + j)
		}
		for i := 0; i < 10; i++ {
			w("")
			w("\t// round %d: t = (t + x·y[%d] + q·p) >> 52", i, i)
			w("\t"+v.load, v.stride*i)
			w("\tVPMADD52LUQ Z20, Z0, %s", t[0])
			w("\tVPXORQ Z21, Z21, Z21")
			w("\tVPMADD52LUQ Z22, %s, Z21", t[0])
			for j := 1; j < 10; j++ {
				w("\tVPMADD52LUQ Z20, %s, %s", z(j), t[j])
			}
			for j := 0; j < 10; j++ {
				w("\tVPMADD52LUQ.BCST %d(DI), Z21, %s", 8*j, t[j])
			}
			w("\tVPSRLQ $52, %s, Z23", t[0])
			w("\tVPXORQ %s, %s, %s", t[0], t[0], t[0])
			t = append(t[1:], t[0])
			w("\tVPADDQ Z23, %s, %s", t[0], t[0])
			for j := 0; j < 10; j++ {
				w("\tVPMADD52HUQ Z20, %s, %s", z(j), t[j])
			}
			for j := 0; j < 10; j++ {
				w("\tVPMADD52HUQ.BCST %d(DI), Z21, %s", 8*j, t[j])
			}
		}
		w("")
		w("\t// normalise, then subtract p where t ≥ p")
		carry(t, "VPSRLQ")
		reduceStore(t)
	}

	// Addition: limb sums below 2⁵³, normalised, then reduced like a
	// product.
	t := make([]string, 10)
	for j := range t {
		t[j] = z(10 + j)
	}
	for _, v := range []struct {
		name, yType, op string
		stride          int
	}{
		{"laneAddIFMA", "Lanes", "VPADDQ %d(DX), %s, %s", 64},
		{"laneAddConstIFMA", "LaneConst", "VPADDQ.BCST %d(DX), %s, %s", 8},
	} {
		prologue(v.name, v.yType)
		for j := 0; j < 10; j++ {
			w("\tVMOVDQU64 %d(SI), %s", 64*j, t[j])
			w("\t"+v.op, v.stride*j, t[j], t[j])
		}
		carry(t, "VPSRLQ")
		reduceStore(t)
	}

	// Subtraction: limb differences, borrows propagated by arithmetic
	// shifts, then p added back in the lanes whose top limb went negative.
	prologue("laneSubIFMA", "Lanes")
	for j := 0; j < 10; j++ {
		w("\tVMOVDQU64 %d(SI), %s", 64*j, t[j])
		w("\tVPSUBQ %d(DX), %s, %s", 64*j, t[j], t[j])
	}
	carry(t, "VPSRAQ")
	w("\tVPSRAQ $63, %s, Z23", t[9])
	for j := 0; j < 10; j++ {
		w("\tVPANDQ.BCST %d(DI), Z23, Z25", 8*j)
		w("\tVPADDQ Z25, %s, %s", t[j], t[j])
	}
	carry(t, "VPSRLQ")
	for j := 0; j < 10; j++ {
		w("\tVMOVDQU64 %s, %d(R8)", t[j], 64*j)
	}
	w("\tVZEROUPPER")
	w("\tRET")
}
