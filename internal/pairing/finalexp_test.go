package pairing

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"math/big"
	"os"
	"testing"

	"mwskit/internal/ff"
)

// presetSystems instantiates every embedded preset once per test binary.
func presetSystems(t testing.TB) map[string]*System {
	t.Helper()
	out := make(map[string]*System, len(Presets))
	for name, pp := range Presets {
		out[name] = pp.MustSystem()
	}
	return out
}

// finalExpRef is the final exponentiation finalExp replaced: the easy
// part f^(p−1) = conj(f)·f⁻¹ via Frobenius, then square-and-multiply in
// F_p² with the public exponent (p+1)/q. It is the independent reference
// the differential tests and BenchmarkFinalExp compare finalExp against.
func (e *Pairing) finalExpRef(f ff.E2) ff.E2 {
	g := conj(f).Mul(e2Inv(f))
	return e2Exp(g, e.pPlus1DivQ)
}

// e2Inv returns x⁻¹ = conj(x)/(a² + b²) for x = a + b·i; it panics if x
// is zero. It and e2Exp are the textbook F_p² inverse and power the
// references here are written with.
func e2Inv(x ff.E2) ff.E2 {
	n := x.A.Square().Add(x.B.Square())
	if n.IsZero() {
		panic("pairing: inverse of zero in F_p²")
	}
	ni := n.Inv()
	return ff.NewE2(x.A.Mul(ni), x.B.Neg().Mul(ni))
}

// e2Exp returns x^k for k ≥ 0 by square-and-multiply.
func e2Exp(x ff.E2, k *big.Int) ff.E2 {
	r := x.A.Field().E2One()
	for i := k.BitLen() - 1; i >= 0; i-- {
		r.SetSquare(&r)
		if k.Bit(i) == 1 {
			r.SetMul(&r, &x)
		}
	}
	return r
}

// TestGoldenPairingVectors pins pairing outputs to the bytes the parent
// commit (square-and-multiply final exponentiation) produced; see
// testdata/README.md. Stored tag check values and session keys are hashes
// of these bytes, so a single differing bit would orphan stored data.
func TestGoldenPairingVectors(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_pairing.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Presets map[string]struct {
			A      string `json:"a"`
			B      string `json:"b"`
			PairGG string `json:"pair_g_g"`
			PairAB string `json:"pair_ag_bg"`
		} `json:"presets"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	systems := presetSystems(t)
	if len(golden.Presets) != len(systems) {
		t.Fatalf("golden file covers %d presets, tree has %d", len(golden.Presets), len(systems))
	}
	for name, v := range golden.Presets {
		sys, ok := systems[name]
		if !ok {
			t.Fatalf("golden preset %q no longer exists", name)
		}
		a, _ := new(big.Int).SetString(v.A, 16)
		b, _ := new(big.Int).SetString(v.B, 16)
		g := sys.G1()
		ag, bg := sys.Curve.ScalarMult(g, a), sys.Curve.ScalarMult(g, b)
		for _, c := range []struct {
			what string
			got  GT
			want string
		}{
			{"ê(G,G)", sys.Pair(g, g), v.PairGG},
			{"ê(aG,bG)", sys.Pair(ag, bg), v.PairAB},
			{"precomp ê(aG,bG)", sys.G1Precomp(ag).Pair(bg), v.PairAB},
		} {
			if got := hex.EncodeToString(c.got.Bytes()); got != c.want {
				t.Errorf("%s %s: bytes differ from the parent commit's\n got %s\nwant %s", name, c.what, got, c.want)
			}
		}
	}
}

// TestFinalExpMatchesReference: the Lucas final exponentiation equals
// the conj(f)·f⁻¹ then square-and-multiply routine it replaced on random F_p² values,
// none of which is a Miller value of anything — the identity holds on all
// of F_p²*, not only on accumulators of valid points.
func TestFinalExpMatchesReference(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 50
	}
	for name, sys := range presetSystems(t) {
		for i := 0; i < n; i++ {
			f, err := sys.Curve.F.E2Random(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if e2IsZero(f) {
				continue
			}
			got, want := sys.finalExp(f), sys.finalExpRef(f)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s: finalExp(%v) = %v, reference %v", name, f, got, want)
			}
		}
	}
}

// TestFinalExpDegenerate: accumulators in F_p or i·F_p map to g = ±1,
// where the ladder's closing division by Im(g) is undefined; they must
// take the explicit branch and return what the reference returns, and
// finalExpLanes must mask in the same values.
func TestFinalExpDegenerate(t *testing.T) {
	for name, sys := range presetSystems(t) {
		F := sys.Curve.F
		r, err := F.RandomNonZero(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []ff.E2{
			F.E2One(),
			e2Neg(F.E2One()),
			ff.NewE2(r, F.Zero()),
			ff.NewE2(F.Zero(), F.One()),
			ff.NewE2(F.Zero(), r),
			ff.NewE2(F.Zero(), r.Neg()),
		} {
			got, want := sys.finalExp(f), sys.finalExpRef(f)
			if !e2Equal(got, want) {
				t.Errorf("%s: finalExp(%v) = %v, reference %v", name, f, got, want)
			}
		}
		g := sys.G1()
		if !sys.Pair(g, sys.Curve.Infinity()).IsOne() || !sys.G1Precomp(g).Pair(sys.Curve.Infinity()).IsOne() {
			t.Errorf("%s: ê(P, ∞) != 1", name)
		}
	}
	// The lane path folds the same cases in by masks, zero included, here
	// on the tiny curve (p + 1 = 4·263).
	tiny, _ := tinySystem(t)
	if F := tiny.Curve.F; F.HasLanes() {
		seven := F.FromInt64(7)
		checkFinalExpLanes(t, tiny, [ff.LaneWidth]ff.E2{
			ff.NewE2(F.Zero(), seven), ff.NewE2(seven, F.Zero()), ff.NewE2(F.Zero(), F.Zero()), F.E2One(),
			e2Neg(F.E2One()), ff.NewE2(F.Zero(), seven.Neg()), ff.NewE2(seven, seven), ff.NewE2(F.One(), seven),
		})
	}
}

// FuzzFinalExp is the differential target for the CI fuzz smoke: any
// non-zero F_p² value, decoded from fuzzer bytes on the test preset, must
// come out of the Lucas ladder exactly as out of the reference. Where the
// lane kernel runs, the value, its two zero-coordinate projections, zero
// and its negation and conjugate fill a lane batch, which must match
// finalExp lane for lane.
func FuzzFinalExp(f *testing.F) {
	sys := ParamsTest.MustSystem()
	F := sys.Curve.F
	f.Add(F.E2One().Bytes())
	f.Add(ff.NewE2(F.Zero(), F.One()).Bytes())
	f.Add(sys.G1Precomp(sys.G1()).miller(sys.G1()).Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		// Reduce instead of rejecting so every input of the right length
		// is a test case.
		if len(b) != 2*F.ByteLen() {
			return
		}
		x := ff.NewE2(
			F.NewElement(new(big.Int).SetBytes(b[:F.ByteLen()])),
			F.NewElement(new(big.Int).SetBytes(b[F.ByteLen():])),
		)
		if F.HasLanes() {
			checkFinalExpLanes(t, sys.Pairing, [ff.LaneWidth]ff.E2{
				x, ff.NewE2(x.A, F.Zero()), ff.NewE2(F.Zero(), x.B), F.E2One(),
				ff.NewE2(F.Zero(), F.Zero()), e2Neg(x), conj(x), ff.NewE2(F.Zero(), x.B.Neg()),
			})
		}
		if e2IsZero(x) {
			return
		}
		if got, want := sys.finalExp(x), sys.finalExpRef(x); !e2Equal(got, want) {
			t.Fatalf("finalExp(%v) = %v, reference %v", x, got, want)
		}
	})
}
