//go:build race

package ec

// raceEnabled lets timing-ratio tests skip under the race detector, which
// instruments the Go kernels but not the assembly multiplication.
const raceEnabled = true
