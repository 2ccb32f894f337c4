//go:build amd64

package ff

// montMul8ADX is the MULX/ADCX/ADOX assembly kernel emitted by
// gen_mont8.go into mont8_amd64.s. It requires the BMI2 and ADX
// extensions (Broadwell and later). Like montMul8Go it stores to z only
// after its last read of x and y, so z may alias either.
//
//go:noescape
func montMul8ADX(z, x, y, m *limbs, minv uint64)

// cpuidx executes CPUID with the given leaf/subleaf.
func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// useADX reports whether the processor supports the assembly kernel.
// Feature bits: CPUID.(EAX=7,ECX=0):EBX[8] = BMI2, EBX[19] = ADX.
var useADX = func() bool {
	maxLeaf, _, _, _ := cpuidx(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuidx(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}()

// montMul8 picks the fastest available 8-limb kernel. The branch is on a
// public, fixed CPU feature flag, never on operand values.
func montMul8(z, x, y, m *limbs, minv uint64) {
	if useADX {
		montMul8ADX(z, x, y, m, minv)
		return
	}
	montMul8Go(z, x, y, m, minv)
}
