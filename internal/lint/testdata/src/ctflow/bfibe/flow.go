package bfibe

import (
	"math/big"

	"mwskit/internal/lint/testdata/src/ctflow/ff"
)

// pair returns its key as the second of two results; idx turns its
// second argument into a table offset.
func pair(key []byte) ([]byte, []byte) { return nil, key }

func idx(a, b []byte) int { return int(b[0]) }

// IndexSpread feeds a multi-valued call straight into idx: every
// parameter sees the union of pair's results.
func IndexSpread(key []byte) byte {
	return sbox[idx(pair(key))] // want "memory index depends on symmetric key material"
}

// IndexUnspread is the same flow with the results named first.
func IndexUnspread(key []byte) byte {
	x, y := pair(key)
	return sbox[idx(x, y)] // want "memory index depends on symmetric key material"
}

// LongLoop carries a key byte through six variables, one per
// iteration, before it indexes: the loop is interpreted until its
// environment stops growing, not a fixed number of rounds.
func LongLoop(key []byte, n int) byte {
	var out byte
	var a, b, c, d, e, f int
	for i := 0; i < n; i++ {
		out = sbox[f&0xff] // want "memory index depends on symmetric key material"
		f = e
		e = d
		d = c
		c = b
		b = a
		a = int(key[0])
	}
	return out
}

// Overwritten branches on a variable after a plain assignment replaced
// the key byte it held: the replay is flow-sensitive, so this is clean.
func Overwritten(key []byte) int {
	k := int(key[0])
	k = 0
	if k == 0 {
		return 1
	}
	return 0
}

// ExpSecretExponent drives ff.Exp's schedule with the master scalar:
// class 5 in the operand the callee is variable-time in.
func ExpSecretExponent(m *MasterKey, base *ff.Element) *ff.Element {
	return base.Exp(m.s) // want "IBE master-key material flows into variable-time ff.Exp"
}

// ExpSecretBase raises a secret base to a public exponent: the schedule
// is public, so this is clean.
func ExpSecretBase(m *MasterKey) *ff.Element {
	base := &ff.Element{V: m.s}
	return base.Exp(big.NewInt(3))
}

// SwitchOnKey switches on a key byte, with a tag and without one (each
// case expression is then a condition of its own).
func SwitchOnKey(key []byte) int {
	switch key[0] { // want "branch condition depends on symmetric key material"
	case 1:
		return 1
	}
	switch {
	case key[1] == 2: // want "branch condition depends on symmetric key material"
		return 2
	}
	return 0
}

// JoinKeepsTaint overwrites the key byte on one path only: the join
// after the if still holds it. KilledOnBothArms overwrites it on both.
func JoinKeepsTaint(key []byte, n int) int {
	k := int(key[0])
	if n > 0 {
		k = 0
	}
	if k == 0 { // want "branch condition depends on symmetric key material"
		return 1
	}
	return 0
}

func KilledOnBothArms(key []byte, n int) int {
	k := int(key[0])
	if n > 0 {
		k = 0
	} else {
		k = 1
	}
	if k == 0 {
		return 1
	}
	return 0
}

// RangeOverKey bounds an integer range by a key byte: class 3.
func RangeOverKey(key []byte) int {
	n := 0
	for range int(key[0]) { // want "loop bound depends on symmetric key material"
		n++
	}
	return n
}

// SliceAndDelete use a key byte as a slice bound and as a map key:
// class 2 for both.
func SliceAndDelete(key []byte, m map[byte]int) []byte {
	delete(m, key[0])    // want "memory index depends on symmetric key material"
	return sbox[:key[1]] // want "memory index depends on symmetric key material"
}

// CompareString compares key bytes as a string: == is byte-wise with an
// early exit.
func CompareString(key []byte, tag string) bool {
	return string(key) == tag // want "variable-time string comparison on symmetric key material"
}

// JacobiSecret tests a secret-derived element for residuosity: the
// walk's length leaks it.
func JacobiSecret(m *MasterKey) int {
	x := &ff.Element{V: m.s}
	return x.Jacobi() // want "IBE master-key material flows into variable-time ff.Jacobi"
}

// JacobiPublic tests an element hashed from public bytes, as H1 does:
// clean.
func JacobiPublic(id []byte) int {
	x := &ff.Element{V: new(big.Int).SetBytes(id)}
	return x.Jacobi()
}
