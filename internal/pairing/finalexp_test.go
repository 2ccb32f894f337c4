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
// the conj(f)·f⁻¹ then E2.Exp routine it replaced on random F_p² values,
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
			if f.IsZero() {
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
// take the explicit branch and return what the reference returns.
func TestFinalExpDegenerate(t *testing.T) {
	for name, sys := range presetSystems(t) {
		F := sys.Curve.F
		r, err := F.RandomNonZero(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []ff.E2{
			F.E2One(),
			F.E2One().Neg(),
			ff.E2FromBase(r),
			ff.NewE2(F.Zero(), F.One()),
			ff.NewE2(F.Zero(), r),
			ff.NewE2(F.Zero(), r.Neg()),
		} {
			got, want := sys.finalExp(f), sys.finalExpRef(f)
			if !got.Equal(want) {
				t.Errorf("%s: finalExp(%v) = %v, reference %v", name, f, got, want)
			}
		}
		g := sys.G1()
		if !sys.Pair(g, sys.Curve.Infinity()).IsOne() || !sys.G1Precomp(g).Pair(sys.Curve.Infinity()).IsOne() {
			t.Errorf("%s: ê(P, ∞) != 1", name)
		}
	}
	// An odd exponent sends g = −1 to −1, not 1. Every preset's (p+1)/q
	// is a multiple of four, so take that branch on the tiny curve
	// (p + 1 = 4·263) with the exponent 263.
	tiny, _ := tinySystem(t)
	tiny.pPlus1DivQ = big.NewInt(263)
	F := tiny.Curve.F
	for _, f := range []ff.E2{ff.NewE2(F.Zero(), F.FromInt64(7)), ff.E2FromBase(F.FromInt64(7))} {
		if got, want := tiny.finalExp(f), tiny.finalExpRef(f); !got.Equal(want) {
			t.Errorf("odd exponent: finalExp(%v) = %v, reference %v", f, got, want)
		}
	}
}

// FuzzFinalExp is the differential target for the CI fuzz smoke: any
// non-zero F_p² value, decoded from fuzzer bytes on the test preset, must
// come out of the Lucas ladder exactly as out of the reference.
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
		if x.IsZero() {
			return
		}
		if got, want := sys.finalExp(x), sys.finalExpRef(x); !got.Equal(want) {
			t.Fatalf("finalExp(%v) = %v, reference %v", x, got, want)
		}
	})
}
