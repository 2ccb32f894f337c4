//go:build !amd64

package ff

// useIFMA is false off amd64: HasLanes reports no lane kernel, so callers
// keep to the scalar path and the stubs below are never reached.
const useIFMA = false

func laneMulIFMA(z, x, y *Lanes, m *laneMod)                 { panic("ff: no lane kernel") }
func laneMulConstIFMA(z, x *Lanes, y *LaneConst, m *laneMod) { panic("ff: no lane kernel") }
func laneAddIFMA(z, x, y *Lanes, m *laneMod)                 { panic("ff: no lane kernel") }
func laneAddConstIFMA(z, x *Lanes, y *LaneConst, m *laneMod) { panic("ff: no lane kernel") }
func laneSubIFMA(z, x, y *Lanes, m *laneMod)                 { panic("ff: no lane kernel") }
