package ff

import (
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// The op tables below name every destination-receiver operation of Element
// and E2 once, with its math/big model and — where one survives — its value
// wrapper. TestInPlaceAliasing, TestLimbArithmeticMatchesBig and
// FuzzLimbFieldOps all read them, so an operation added to the API is
// either in a table or untested.

// elemOp is one Element operation. Unary operations ignore y.
type elemOp struct {
	name  string
	set   func(z, x, y *Element)
	val   func(x, y Element) Element
	model func(x, y *big.Int) *big.Int // reduced mod p by the caller
}

var elemOps = []elemOp{
	{"Add", (*Element).SetAdd, Element.Add, func(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) }},
	{"Sub", (*Element).SetSub, Element.Sub, func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) }},
	{"Mul", (*Element).SetMul, Element.Mul, func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) }},
	{"Neg", func(z, x, _ *Element) { z.SetNeg(x) }, func(x, _ Element) Element { return x.Neg() },
		func(x, _ *big.Int) *big.Int { return new(big.Int).Neg(x) }},
	{"Square", func(z, x, _ *Element) { z.SetSquare(x) }, func(x, _ Element) Element { return x.Square() },
		func(x, _ *big.Int) *big.Int { return new(big.Int).Mul(x, x) }},
	{"Double", func(z, x, _ *Element) { z.SetDouble(x) }, func(x, _ Element) Element { return x.Double() },
		func(x, _ *big.Int) *big.Int { return new(big.Int).Lsh(x, 1) }},
	{"Select1", func(z, x, y *Element) { z.SetSelect(1, x, y) }, nil, func(x, _ *big.Int) *big.Int { return x }},
	{"Select0", func(z, x, y *Element) { z.SetSelect(0, x, y) }, nil, func(_, y *big.Int) *big.Int { return y }},
}

// bigE2 is the math/big model of an F_p² element a + b·i.
type bigE2 struct{ a, b *big.Int }

func (f *Field) e2FromBig(v bigE2) E2 { return NewE2(f.NewElement(v.a), f.NewElement(v.b)) }

// e2Op is one E2 operation; its model leaves reduction mod p to the caller.
type e2Op struct {
	name  string
	set   func(z, x, y *E2)
	val   func(x, y E2) E2
	model func(x, y bigE2) bigE2
}

var e2Ops = []e2Op{
	{"Mul", (*E2).SetMul, E2.Mul, func(x, y bigE2) bigE2 { // (ac − bd) + (ad + bc)·i
		ac, bd := new(big.Int).Mul(x.a, y.a), new(big.Int).Mul(x.b, y.b)
		ad, bc := new(big.Int).Mul(x.a, y.b), new(big.Int).Mul(x.b, y.a)
		return bigE2{ac.Sub(ac, bd), ad.Add(ad, bc)}
	}},
	{"Square", func(z, x, _ *E2) { z.SetSquare(x) }, nil, func(x, _ bigE2) bigE2 {
		aa, bb := new(big.Int).Mul(x.a, x.a), new(big.Int).Mul(x.b, x.b)
		ab := new(big.Int).Mul(x.a, x.b)
		return bigE2{aa.Sub(aa, bb), ab.Lsh(ab, 1)}
	}},
	{"Select1", func(z, x, y *E2) { z.SetSelect(1, x, y) }, nil, func(x, _ bigE2) bigE2 { return x }},
	{"Select0", func(z, x, y *E2) { z.SetSelect(0, x, y) }, nil, func(_, y bigE2) bigE2 { return y }},
}

// checkElem fails unless z holds want mod p with every limb past the
// field's n still zero: an operation that touched limb n would leave
// garbage there for the next one to carry into.
func checkElem(t testing.TB, what string, z *Element, want *big.Int) {
	t.Helper()
	f := z.f
	if f == nil {
		t.Fatalf("%s: result has no field", what)
	}
	if got, w := z.BigInt(), new(big.Int).Mod(want, f.p); got.Cmp(w) != 0 {
		t.Fatalf("p=%d bits: %s = %v, want %v", f.p.BitLen(), what, got, w)
	}
	for i := f.n; i < MaxLimbs; i++ {
		if z.v[i] != 0 {
			t.Fatalf("p=%d bits: %s left limb %d = %#x past the field's %d", f.p.BitLen(), what, i, z.v[i], f.n)
		}
	}
}

func checkE2(t testing.TB, what string, z *E2, want bigE2) {
	t.Helper()
	checkElem(t, what+" (real)", &z.A, want.a)
	checkElem(t, what+" (imaginary)", &z.B, want.b)
}

// checkElemOp runs op on (xv, yv) in every aliasing shape the operands
// allow — fresh z, z = x, z = y, and z = x = y when the values coincide —
// against the model, and its value wrapper against the in-place result.
func checkElemOp(t testing.TB, f *Field, op elemOp, xv, yv *big.Int) {
	t.Helper()
	want := op.model(xv, yv)
	x, y := f.NewElement(xv), f.NewElement(yv)

	var z Element
	op.set(&z, &x, &y)
	checkElem(t, op.name+" into a fresh z", &z, want)
	if !x.Equal(f.NewElement(xv)) || !y.Equal(f.NewElement(yv)) {
		t.Fatalf("p=%d bits: %s wrote to an operand it does not alias", f.p.BitLen(), op.name)
	}
	if op.val != nil {
		if v := op.val(x, y); !v.Equal(z) {
			t.Fatalf("p=%d bits: value %s = %v, in place %v", f.p.BitLen(), op.name, v, z)
		}
	}

	zx := x
	op.set(&zx, &zx, &y)
	checkElem(t, op.name+" with z = x", &zx, want)

	zy := y
	op.set(&zy, &x, &zy)
	checkElem(t, op.name+" with z = y", &zy, want)

	both := x
	op.set(&both, &both, &both)
	checkElem(t, op.name+" with z = x = y", &both, op.model(xv, xv))
}

func checkE2Op(t testing.TB, f *Field, op e2Op, xv, yv bigE2) {
	t.Helper()
	want := op.model(xv, yv)
	x, y := f.e2FromBig(xv), f.e2FromBig(yv)

	var z E2
	op.set(&z, &x, &y)
	checkE2(t, "E2 "+op.name+" into a fresh z", &z, want)
	if !x.Equal(f.e2FromBig(xv)) || !y.Equal(f.e2FromBig(yv)) {
		t.Fatalf("p=%d bits: E2 %s wrote to an operand it does not alias", f.p.BitLen(), op.name)
	}
	if op.val != nil {
		if v := op.val(x, y); !v.Equal(z) {
			t.Fatalf("p=%d bits: value E2 %s = %v, in place %v", f.p.BitLen(), op.name, v, z)
		}
	}

	zx := x
	op.set(&zx, &zx, &y)
	checkE2(t, "E2 "+op.name+" with z = x", &zx, want)

	zy := y
	op.set(&zy, &x, &zy)
	checkE2(t, "E2 "+op.name+" with z = y", &zy, want)

	both := x
	op.set(&both, &both, &both)
	checkE2(t, "E2 "+op.name+" with z = x = y", &both, op.model(xv, xv))
}

// TestInPlaceAliasing pins the aliasing contract every Set method states:
// z may be x, y or both. It runs on the three preset widths (5, 8 and 16
// limbs) — the 8-limb field once per multiplication kernel this build has
// (mont8Kernels: the ADX assembly and the pure-Go unrolling on amd64) —
// over edge and random operands, against math/big.
func TestInPlaceAliasing(t *testing.T) {
	rng := mrand.New(mrand.NewSource(28))
	for _, f := range diffFields(t)[1:4] { // test, bf80, bf112
		run := func(t *testing.T) {
			ops := diffOperands(f, rng, 8)
			for i, xv := range ops {
				yv := ops[(i*5+2)%len(ops)]
				for _, op := range elemOps {
					checkElemOp(t, f, op, xv, yv)
				}
				x2 := bigE2{xv, ops[(i*3+1)%len(ops)]}
				y2 := bigE2{yv, ops[(i*7+4)%len(ops)]}
				for _, op := range e2Ops {
					checkE2Op(t, f, op, x2, y2)
				}
			}
		}
		if f.n != 8 {
			t.Run(fmt.Sprintf("%dlimbs", f.n), run)
			continue
		}
		for name, force := range mont8Kernels {
			t.Run("8limbs/"+name, func(t *testing.T) {
				defer force()()
				run(t)
			})
		}
	}
}
