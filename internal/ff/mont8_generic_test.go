//go:build !amd64

package ff

// mont8Kernels lists the one 8-limb kernel a non-amd64 build has.
var mont8Kernels = map[string]func() (restore func()){
	"go": func() func() { return func() {} },
}

// laneKernels lists the one state a non-amd64 build has: no lane kernel.
var laneKernels = map[string]func() (restore func()){
	"off": func() func() { return func() {} },
}
