//go:build !lanego

package ff

// Without the lanego tag the lane methods call the IFMA kernel directly;
// HasLanes is false wherever it is absent.
const laneGo = false

func laneMul(z, x, y *Lanes, m *laneMod)                 { laneMulIFMA(z, x, y, m) }
func laneMulConst(z, x *Lanes, y *LaneConst, m *laneMod) { laneMulConstIFMA(z, x, y, m) }
func laneAdd(z, x, y *Lanes, m *laneMod)                 { laneAddIFMA(z, x, y, m) }
func laneAddConst(z, x *Lanes, y *LaneConst, m *laneMod) { laneAddConstIFMA(z, x, y, m) }
func laneSub(z, x, y *Lanes, m *laneMod)                 { laneSubIFMA(z, x, y, m) }
