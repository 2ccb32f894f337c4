// Package app is the cross-package half of the ctflow fixture: secret
// taint must survive the package boundary through bfibe's call-graph
// summaries, not just through type-based sources in one package.
package app

import (
	"mwskit/internal/lint/testdata/src/ctflow/bfibe"
)

// routes is a public table indexed by a secret below.
var routes [256]int

// CrossBranch branches on a private-key byte obtained through the
// bfibe.KeyByte summary: cross-package class 1.
func CrossBranch(sk *bfibe.PrivateKey) int {
	b := bfibe.KeyByte(sk, 0)
	if b == 0 { // want "branch condition depends on an extracted identity private key"
		return 1
	}
	return 0
}

// CrossIndex indexes with the same cross-package secret: class 2.
func CrossIndex(sk *bfibe.PrivateKey) int {
	return routes[bfibe.KeyByte(sk, 1)] // want "memory index depends on an extracted identity private key"
}

// CrossClean consumes only the key's public identity: no findings.
func CrossClean(sk *bfibe.PrivateKey) int {
	return len(sk.ID)
}

// BranchOnDecapsulated branches on a session key from the single form of
// decapsulation: class 1. Its error is public.
func BranchOnDecapsulated(d *bfibe.Decapsulator, enc *bfibe.Encapsulation) int {
	key, err := d.Decapsulate(enc, 16)
	if err != nil {
		return -1
	}
	if key[0] == 0 { // want "branch condition depends on symmetric key material"
		return 1
	}
	return 0
}

// BranchOnBatchKey is the same through the batch form: its keys are a
// [][]byte, labelled like one key, and its errors stay public.
func BranchOnBatchKey(d *bfibe.Decapsulator, encs []*bfibe.Encapsulation) int {
	keys, errs := bfibe.DecapsulateBatch([]*bfibe.Decapsulator{d}, encs, []int{16})
	if errs[0] != nil {
		return -1
	}
	if keys[0][0] == 0 { // want "branch condition depends on symmetric key material"
		return 1
	}
	return 0
}
