// Package ec is the ctflow fixture for destination-receiver arithmetic:
// a value that leaves a callee through a pointer destination instead of a
// result must stay as secret as its value-returning twin. Its terminal
// path segment makes it a core math package, where a tainted struct means
// every coordinate is secret.
package ec

import (
	"mwskit/internal/lint/testdata/src/ctflow/bfibe"
	"mwskit/internal/lint/testdata/src/ctflow/ff"
)

// Point is a projective point; its kernels come in both forms.
type Point struct {
	x, z ff.Element
}

// FromKey lifts a private key's coordinate into a point.
func FromKey(sk *bfibe.PrivateKey) *Point {
	return &Point{x: ff.Element{V: sk.D}, z: ff.Element{V: sk.D}}
}

// IsInf is the branchable predicate callers outside the package use.
func (p *Point) IsInf() bool { return p.z.IsZero() }

// doubleValue returns 2j; SetDouble writes it through r. Same formula.
func doubleValue(j Point) Point {
	return Point{x: j.x.Mul(j.z), z: j.z.Mul(j.z)}
}

func SetDouble(r, j *Point) {
	r.x.SetMul(&j.x, &j.z)
	r.z.SetMul(&j.z, &j.z)
}

// ProductValue and ProductInPlace cross the package boundary into ff: the
// private-key coordinate is multiplied there and branched on here.
func ProductValue(sk *bfibe.PrivateKey, y ff.Element) int {
	secret := ff.Element{V: sk.D}
	z := secret.Mul(y)
	if z.IsZero() { // want "branch condition depends on an extracted identity private key"
		return 1
	}
	return 0
}

func ProductInPlace(sk *bfibe.PrivateKey, y *ff.Element) int {
	secret := ff.Element{V: sk.D}
	var z ff.Element
	z.SetMul(&secret, y)
	if z.IsZero() { // want "branch condition depends on an extracted identity private key"
		return 1
	}
	return 0
}

// LadderValue and LadderInPlace keep kernel and branch in one package.
func LadderValue(sk *bfibe.PrivateKey) int {
	r := doubleValue(*FromKey(sk))
	if r.z.IsZero() { // want "branch condition depends on an extracted identity private key"
		return 1
	}
	return 0
}

func LadderInPlace(sk *bfibe.PrivateKey) int {
	var r Point
	SetDouble(&r, FromKey(sk))
	if r.z.IsZero() { // want "branch condition depends on an extracted identity private key"
		return 1
	}
	return 0
}

// PublicInPlace runs the same kernel on public operands: clean.
func PublicInPlace(a, b *ff.Element) int {
	var z ff.Element
	z.SetMul(a, b)
	if z.IsZero() {
		return 1
	}
	return 0
}
