//go:build amd64

package ff

// The lane kernel in mont8_amd64.s (gen_mont8.go). Each requires AVX512F
// and AVX512IFMA; like the scalar kernels each stores to z only after its
// last read of x and y, so z may alias either.

//go:noescape
func laneMulIFMA(z, x, y *Lanes, m *laneMod)

//go:noescape
func laneMulConstIFMA(z, x *Lanes, y *LaneConst, m *laneMod)

//go:noescape
func laneAddIFMA(z, x, y *Lanes, m *laneMod)

//go:noescape
func laneAddConstIFMA(z, x *Lanes, y *LaneConst, m *laneMod)

//go:noescape
func laneSubIFMA(z, x, y *Lanes, m *laneMod)

// xgetbv reads XCR0, the state components the OS saves on a context
// switch.
func xgetbv() (eax, edx uint32)

// useIFMA reports whether the lane kernel can run: CPUID.(EAX=7,ECX=0)
// lists AVX512F (EBX[16]) and AVX512IFMA (EBX[21]), and the OS has
// enabled XGETBV (CPUID.1:ECX[27], OSXSAVE) and saves the SSE, AVX,
// opmask and both ZMM halves (XCR0 bits 1, 2 and 5–7).
var useIFMA = func() bool {
	maxLeaf, _, _, _ := cpuidx(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidx(1, 0)
	if ecx1&(1<<27) == 0 {
		return false
	}
	_, ebx, _, _ := cpuidx(7, 0)
	const avx512f, ifma = 1 << 16, 1 << 21
	xcr0, _ := xgetbv()
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	return ebx&avx512f != 0 && ebx&ifma != 0 && xcr0&zmmState == zmmState
}()
