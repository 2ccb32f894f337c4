// Package kdf is a mwslint fixture stand-in for the hash family: its
// ScalarSeed is a ctflow passthrough, as secret as what went in.
package kdf

import "crypto/sha256"

// ScalarSeed expands the inputs into n bytes for ec.ScalarFromWide.
func ScalarSeed(domain string, n int, parts ...[]byte) []byte {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)[:n]
}
