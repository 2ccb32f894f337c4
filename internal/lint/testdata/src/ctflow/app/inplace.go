package app

import (
	"mwskit/internal/lint/testdata/src/ctflow/bfibe"
	"mwskit/internal/lint/testdata/src/ctflow/ec"
)

// CrossInPlace receives the secret through a destination argument filled
// two packages down (ec.SetDouble over ff.SetMul): the out-parameter
// summaries must carry it across both boundaries.
func CrossInPlace(sk *bfibe.PrivateKey) int {
	var r ec.Point
	ec.SetDouble(&r, ec.FromKey(sk))
	if r.IsInf() { // want "branch condition depends on an extracted identity private key"
		return 1
	}
	return 0
}
