package store

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 1 || MustField() != 3 {
		t.Fatal("fixture")
	}
}
