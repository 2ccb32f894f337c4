package pairing

import (
	"math/big"
	"testing"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
)

// TestMillerWalkCount pins the Miller walk to q's non-adjacent form, in
// the spirit of ff's TestInvBatchCount. On every preset the digits spell
// q, lie in {−1, 0, 1} with no two adjacent ones non-zero, and lead with
// a 1; a precomputation holds a tangent for each digit below the leading
// one and a stored chord for each non-zero digit but the leading one and
// the last, whose vertical chord is checked and dropped. bf80's binary q
// (Hamming weight 83) walked 159 tangents and 81 stored chords; its NAF
// walks 160 and 54.
func TestMillerWalkCount(t *testing.T) {
	systems := presetSystems(t)
	for name, want := range map[string]struct{ digits, weight, binaryWeight int }{
		"test":  {129, 40, 73},
		"bf80":  {161, 56, 83},
		"bf112": {225, 72, 124},
	} {
		sys := systems[name]
		q := sys.Curve.Q
		got, weight := new(big.Int), 0
		for i, d := range sys.naf {
			got.Lsh(got, 1).Add(got, big.NewInt(int64(d)))
			if d < -1 || d > 1 || d != 0 && i > 0 && sys.naf[i-1] != 0 {
				t.Fatalf("%s: digit %d of %d is %d after %d: not a NAF", name, i, len(sys.naf), d, sys.naf[max(i-1, 0)])
			}
			if d != 0 {
				weight++
			}
		}
		binaryWeight := 0
		for _, w := range q.Bits() {
			for ; w != 0; w &= w - 1 {
				binaryWeight++
			}
		}
		if got.Cmp(q) != 0 || sys.naf[0] != 1 {
			t.Fatalf("%s: the digits spell %v, leading %d; want q = %v, leading 1", name, got, sys.naf[0], q)
		}
		if len(sys.naf) != want.digits || weight != want.weight || binaryWeight != want.binaryWeight {
			t.Errorf("%s: %d NAF digits of weight %d, binary weight %d; want %d, %d and %d",
				name, len(sys.naf), weight, binaryWeight, want.digits, want.weight, want.binaryWeight)
		}
		pre := sys.G1Precomp(sys.G1())
		chords := 0
		for _, st := range pre.steps {
			if st.hasChord {
				chords++
			}
		}
		if len(pre.steps) != len(sys.naf)-1 || chords != weight-2 {
			t.Errorf("%s: %d tangents and %d stored chords; want %d and the NAF weight minus 2, %d",
				name, len(pre.steps), chords, len(sys.naf)-1, weight-2)
		}
	}
}

// TestReferencePairingEveryFirstArgument runs the textbook reference of
// refpair_test.go, whose Miller loop walks q's binary digits, against the
// signed-digit walk for every first argument of G1 on the two q = 263 toy
// curves. 263 = 256 + 8 − 1 ends in a −1 digit, so each walk's last
// chord passes through −P, and every P takes the exception-freeness
// argument of G1Precomp through all its prefixes. The second arguments
// are a stride through E(F_p) that includes (0, 0): both G1 points and
// points off the subgroup.
func TestReferencePairingEveryFirstArgument(t *testing.T) {
	for _, p := range []int64{1051, 6311} {
		c := ec.MustCurve(ff.MustField(big.NewInt(p)), big.NewInt(263))
		e, ref := New(c), newRefPairing(c)
		if last := e.naf[len(e.naf)-1]; last != -1 || len(e.naf) != 9 {
			t.Fatalf("q = 263 recodes to %v; want 9 digits ending in −1", e.naf)
		}
		g, err := c.HashToSubgroup("refpair", []byte("gen"))
		if err != nil {
			t.Fatal(err)
		}
		var seconds []ec.Point
		for i, r := range allFinitePoints(t, c) {
			if i%(int(p)/40) == 0 {
				seconds = append(seconds, r)
			}
		}
		pt := g
		for k := 1; k < 263; k++ {
			pre, lines := e.G1Precomp(pt), ref.walk(toRef(pt))
			for _, r := range seconds {
				if got := pre.Pair(r); !ref.equal(ref.eval(lines, toRef(r)), got) {
					t.Fatalf("p = %d: G1Precomp(%d·G).Pair(%v) differs from the reference", p, k, r)
				}
			}
			pt = c.Add(pt, g)
		}
		if !pt.Inf {
			t.Fatalf("p = %d: 263·G is not ∞", p)
		}
	}
}
