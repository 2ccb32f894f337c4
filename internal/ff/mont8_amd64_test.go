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
