// Package ff is the ctflow fixture's stand-in for the fixed-limb field
// layer: its terminal path segment keeps its bodies out of ctflow's
// replay and makes Exp a variable-time callee in its exponent only.
package ff

import "math/big"

// Element is a field element.
type Element struct {
	V *big.Int
}

// Exp follows k's bits. Were this body replayed, the Sign call and the
// branch on it would be findings once a caller passes a secret exponent;
// ctflow accounts for the schedule at that call site instead.
func (e *Element) Exp(k *big.Int) *Element {
	if k.Sign() == 0 {
		return &Element{V: big.NewInt(1)}
	}
	return e
}

// Mul and SetMul are one operation in its two forms: the product leaves
// Mul as a result and SetMul through the destination receiver z.
func (e Element) Mul(x Element) Element { return Element{V: new(big.Int).Mul(e.V, x.V)} }

func (z *Element) SetMul(x, y *Element) { z.V = new(big.Int).Mul(x.V, y.V) }

// IsZero is the predicate the callers branch on.
func (e *Element) IsZero() bool { return e.V.Sign() == 0 }

// Jacobi returns the value's Legendre symbol by a walk whose length
// follows the value: variable-time in its receiver.
func (e *Element) Jacobi() int { return e.V.Sign() }
