//go:build amd64

package ff

// mont8Kernels forces each 8-limb multiplication kernel this processor can
// run; the returned func restores the dispatch. Tests using it must not be
// parallel: useADX is package state.
var mont8Kernels = func() map[string]func() (restore func()) {
	force := func(adx bool) func() func() {
		return func() func() {
			was := useADX
			useADX = adx
			return func() { useADX = was }
		}
	}
	ks := map[string]func() func(){"go": force(false)}
	if useADX {
		ks["adx"] = force(true)
	}
	return ks
}()

// laneKernels forces the lane kernel off, and on where this processor can
// run it; the returned func restores the dispatch. Like mont8Kernels, its
// users must not be parallel.
var laneKernels = func() map[string]func() (restore func()) {
	force := func(on bool) func() func() {
		return func() func() {
			was := useIFMA
			useIFMA = on
			return func() { useIFMA = was }
		}
	}
	ks := map[string]func() func(){"off": force(false)}
	if useIFMA {
		ks["ifma"] = force(true)
	}
	return ks
}()
