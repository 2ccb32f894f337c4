//go:build lanego

package ff

// Under -tags lanego the forced-off state turns the portable kernel off
// too, and "go" forces it on with IFMA off, so TestLaneKernel checks it
// on every host and against the assembly where IFMA is present.
func init() {
	off := laneKernels["off"]
	force := func(on bool) func() func() {
		return func() func() {
			restore := off()
			was := laneGo
			laneGo = on
			return func() { laneGo = was; restore() }
		}
	}
	laneKernels["off"], laneKernels["go"] = force(false), force(true)
}
