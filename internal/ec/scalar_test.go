package ec

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

// The tests below hold Scalar to math/big, which stays the reference in
// the tests after leaving the code.

// TestScalarBytes round-trips random and edge values through the fixed
// width codec and checks what the decoder must refuse: q, q+1, all ones
// and every wrong length.
func TestScalarBytes(t *testing.T) {
	for name, c := range testCurves(t) {
		n := c.ScalarLen()
		enc := func(v *big.Int) []byte { return v.FillBytes(make([]byte, n)) }
		vals := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(c.Q, big.NewInt(1))}
		for i := 0; i < 200; i++ {
			v, err := rand.Int(rand.Reader, c.Q)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, v)
		}
		for _, v := range vals {
			k, err := c.ScalarFromBytes(enc(v))
			if err != nil {
				t.Fatalf("%s: %v refused: %v", name, v, err)
			}
			if !bytes.Equal(c.ScalarBytes(k), enc(v)) {
				t.Fatalf("%s: %v re-encodes to %x", name, v, c.ScalarBytes(k))
			}
			if k.IsZero() != (v.Sign() == 0) {
				t.Fatalf("%s: IsZero(%v) = %v", name, v, k.IsZero())
			}
		}
		allOnes := bytes.Repeat([]byte{0xff}, n)
		for _, bad := range [][]byte{enc(c.Q), enc(new(big.Int).Add(c.Q, big.NewInt(1))), allOnes,
			nil, enc(big.NewInt(1))[1:], append([]byte{0}, enc(big.NewInt(1))...)} {
			if _, err := c.ScalarFromBytes(bad); err == nil {
				t.Errorf("%s: %x accepted", name, bad)
			}
		}
	}
}

// TestScalarAdd checks ScalarAdd ≡ (a + b) mod q: every pair on q = 263,
// random pairs and the edge pairs on the presets.
func TestScalarAdd(t *testing.T) {
	check := func(c *Curve, a, b *big.Int) {
		t.Helper()
		want := new(big.Int).Add(a, b)
		want.Mod(want, c.Q)
		if got := bigOf(c, c.ScalarAdd(scalarOf(t, c, a), scalarOf(t, c, b))); got.Cmp(want) != 0 {
			t.Fatalf("q=%v: %v + %v = %v, want %v", c.Q, a, b, got, want)
		}
	}
	for name, c := range testCurves(t) {
		if name == "q263" {
			for a := int64(0); a < 263; a++ {
				for b := int64(0); b < 263; b++ {
					check(c, big.NewInt(a), big.NewInt(b))
				}
			}
			continue
		}
		qm1 := new(big.Int).Sub(c.Q, big.NewInt(1))
		check(c, qm1, qm1)
		check(c, big.NewInt(0), big.NewInt(0))
		check(c, big.NewInt(1), qm1)
		for i := 0; i < 500; i++ {
			a, err := rand.Int(rand.Reader, c.Q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := rand.Int(rand.Reader, c.Q)
			if err != nil {
				t.Fatal(err)
			}
			check(c, a, b)
		}
	}
}

// TestScalarFromWide checks the wide reduction ≡ (v mod (q−1)) + 1, the
// map kdf.ToScalar computed with math/big, for extreme and random v of
// every length up to the 64 extra bits the callers pass, and beyond.
func TestScalarFromWide(t *testing.T) {
	for name, c := range testCurves(t) {
		qm1 := new(big.Int).Sub(c.Q, big.NewInt(1))
		n := c.ScalarLen() + 8
		vs := [][]byte{nil, make([]byte, n), bytes.Repeat([]byte{0xff}, n), bytes.Repeat([]byte{0xff}, 2*n),
			qm1.FillBytes(make([]byte, n)), c.Q.FillBytes(make([]byte, n)),
			new(big.Int).Sub(qm1, big.NewInt(1)).FillBytes(make([]byte, n))}
		for i := 0; i < 300; i++ {
			v := make([]byte, 1+i%(n+4))
			if _, err := rand.Read(v); err != nil {
				t.Fatal(err)
			}
			vs = append(vs, v)
		}
		for _, v := range vs {
			want := new(big.Int).SetBytes(v)
			want.Mod(want, qm1).Add(want, big.NewInt(1))
			if got := bigOf(c, c.ScalarFromWide(v)); got.Cmp(want) != 0 {
				t.Fatalf("%s: ScalarFromWide(%x) = %v, want %v", name, v, got, want)
			}
		}
	}
}

// FuzzScalarFromBytes: the decoder never panics, accepts exactly the
// ScalarLen()-byte values below q, and re-encodes what it accepts to the
// same bytes.
func FuzzScalarFromBytes(f *testing.F) {
	curves := testCurves(f)
	for _, c := range curves {
		f.Add(c.Q.FillBytes(make([]byte, c.ScalarLen())))
		f.Add(make([]byte, c.ScalarLen()))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		for name, c := range curves {
			k, err := c.ScalarFromBytes(b)
			valid := len(b) == c.ScalarLen() && new(big.Int).SetBytes(b).Cmp(c.Q) < 0
			if (err == nil) != valid {
				t.Fatalf("%s: %x: err = %v, want valid = %v", name, b, err, valid)
			}
			if err == nil && !bytes.Equal(c.ScalarBytes(k), b) {
				t.Fatalf("%s: %x re-encodes to %x", name, b, c.ScalarBytes(k))
			}
		}
	})
}
