package peks

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/big"
	"os"
	"testing"

	"mwskit/internal/bfibe"
	"mwskit/internal/ec"
	"mwskit/internal/kdf"
	"mwskit/internal/pairing"
)

// counterStream is SHA-256 in counter mode over a seed: the deterministic
// entropy source the golden tags were drawn from (testdata/README.md).
type counterStream struct {
	seed []byte
	ctr  uint64
	buf  []byte
}

func (s *counterStream) Read(p []byte) (int, error) {
	for i := range p {
		if len(s.buf) == 0 {
			var c [8]byte
			binary.BigEndian.PutUint64(c[:], s.ctr)
			s.ctr++
			h := sha256.Sum256(append(append([]byte{}, s.seed...), c[:]...))
			s.buf = h[:]
		}
		p[i] = s.buf[0]
		s.buf = s.buf[1:]
	}
	return len(p), nil
}

// TestGoldenTagAndTrapdoor pins, per preset, a tag and its trapdoor to the
// bytes the parent commit produced from the same master scalar and the
// same entropy. The tag's check value is H(ê(Q_W, P_pub)^r) and Test
// recomputes it as H(ê(T_W, U)), so both ends of the pairing — full and
// fixed-argument — are held to the old final exponentiation's output.
func TestGoldenTagAndTrapdoor(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_peks.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Presets map[string]struct {
			Master   string `json:"master"`
			Keyword  string `json:"keyword"`
			RandSeed string `json:"rand_seed"`
			Tag      string `json:"tag"`
			Trapdoor string `json:"trapdoor"`
		} `json:"presets"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Presets) != len(pairing.Presets) {
		t.Fatalf("golden file covers %d presets, tree has %d", len(golden.Presets), len(pairing.Presets))
	}
	for name, v := range golden.Presets {
		pp, ok := pairing.Presets[name]
		if !ok {
			t.Fatalf("golden preset %q no longer exists", name)
		}
		s, _ := new(big.Int).SetString(v.Master, 16)
		sys := pp.MustSystem()
		mk, err := bfibe.UnmarshalMasterKey(sys, s.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		p := bfibe.ParamsFromMaster(sys, mk)

		tag, err := NewTag(p, v.Keyword, &counterStream{seed: []byte(v.RandSeed)})
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(MarshalTag(p, tag)); got != v.Tag {
			t.Errorf("%s: tag bytes differ from the parent commit's\n got %s\nwant %s", name, got, v.Tag)
		}
		td, err := NewTrapdoor(p, mk, v.Keyword)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(MarshalTrapdoor(p, td)); got != v.Trapdoor {
			t.Errorf("%s: trapdoor bytes differ from the parent commit's", name)
		}

		// The stored bytes, decoded as the warehouse decodes them.
		tagBytes, _ := hex.DecodeString(v.Tag)
		tdBytes, _ := hex.DecodeString(v.Trapdoor)
		storedTag, err := UnmarshalTag(p, tagBytes)
		if err != nil {
			t.Fatal(err)
		}
		storedTD, err := UnmarshalTrapdoor(p, tdBytes)
		if err != nil {
			t.Fatal(err)
		}
		tester, err := NewTester(p, storedTD)
		if err != nil {
			t.Fatal(err)
		}
		if !tester.Test(storedTag) || !Test(p, storedTag, storedTD) {
			t.Errorf("%s: the parent commit's tag no longer matches its trapdoor", name)
		}
	}
}

// TestTesterAgreesWithTest holds the per-search path to the one-shot
// wrapper on matching, non-matching and malformed tags, and reuses one
// Tester for all of them as a search does.
func TestTesterAgreesWithTest(t *testing.T) {
	p, m := env(t)
	td, err := NewTrapdoor(p, m, "alert")
	if err != nil {
		t.Fatal(err)
	}
	tester, err := NewTester(p, td)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(kw string) *Tag {
		tag, err := NewTag(p, kw, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return tag
	}
	hit := mk("alert")
	flipped := &Tag{U: hit.U, C: append([]byte{hit.C[0] ^ 1}, hit.C[1:]...)}
	offCurve := &Tag{U: ec.Point{X: hit.U.X, Y: hit.U.Y.Add(p.Sys.Curve.F.One())}, C: hit.C}
	for _, c := range []struct {
		what string
		tag  *Tag
		want bool
	}{
		{"matching", hit, true},
		{"second matching", mk("alert"), true},
		{"other keyword", mk("outage"), false},
		{"flipped check bit", flipped, false},
		{"short check value", &Tag{U: hit.U, C: hit.C[:8]}, false},
		{"off-curve point", offCurve, false},
		{"identity point", &Tag{U: p.Sys.Curve.Infinity(), C: hit.C}, false},
		{"nil", nil, false},
	} {
		if got := tester.Test(c.tag); got != c.want {
			t.Errorf("Tester.Test(%s) = %v, want %v", c.what, got, c.want)
		}
		if got := Test(p, c.tag, td); got != c.want {
			t.Errorf("Test(%s) = %v, want %v", c.what, got, c.want)
		}
	}

	bad := &Trapdoor{T: offCurve.U}
	if _, err := NewTester(p, bad); err == nil {
		t.Error("NewTester accepted an off-curve trapdoor")
	}
	if _, err := NewTester(p, nil); err == nil {
		t.Error("NewTester accepted a nil trapdoor")
	}
	if Test(p, hit, bad) {
		t.Error("Test matched under an off-curve trapdoor")
	}
}

// FuzzUnmarshalTag: the decoder the warehouse runs on every stored tag
// of every search never panics, and whatever it accepts is a canonical
// encoding of a finite point on the curve plus a full-length check value.
func FuzzUnmarshalTag(f *testing.F) {
	p, _ := env(f)
	tag, err := NewTag(p, "fuzz", rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	good := MarshalTag(p, tag)
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(MarshalTag(p, &Tag{U: ec.Point{X: tag.U.X, Y: tag.U.Y.Add(p.Sys.Curve.F.One())}, C: tag.C}))
	f.Add([]byte{0, 0, 0, 1, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := UnmarshalTag(p, b)
		if err != nil {
			return
		}
		if len(got.C) != tagHashLen || got.U.Inf || !p.Sys.Curve.IsOnCurve(got.U) {
			t.Fatalf("accepted a malformed tag: %x", b)
		}
		if !bytes.Equal(MarshalTag(p, got), b) {
			t.Fatalf("accepted a non-canonical encoding: %x", b)
		}
	})
}

// wildcardTags are three tags whose check value is H(1), the hash of the
// pairing value of a point with no G1 part, over ∞, the 2-torsion point
// (0, 0) and q·S (S on the curve outside G1, so q·S has order dividing h).
// Were pairing value 1 accepted, each would match every trapdoor: a device
// could put its message into every keyword search.
func wildcardTags(t testing.TB, p *bfibe.Params) []namedTag {
	t.Helper()
	c := p.Sys.Curve
	h1 := kdf.Stream("mwskit/peks/h/v1", p.Sys.GTOne().Bytes(), tagHashLen)
	two, err := c.NewPoint(c.F.Zero(), c.F.Zero())
	if err != nil {
		t.Fatal(err)
	}
	tors := c.Infinity()
	for x := int64(1); tors.Inf; x++ {
		xe := c.F.FromInt64(x)
		if y, ok := xe.Square().Mul(xe).Add(xe).Sqrt(); ok {
			s, err := c.NewPoint(xe, y)
			if err != nil {
				t.Fatal(err)
			}
			tors = c.ScalarMult(s, c.Q)
		}
	}
	return []namedTag{{"∞", &Tag{U: c.Infinity(), C: h1}}, {"(0, 0)", &Tag{U: two, C: h1}}, {"q·S", &Tag{U: tors, C: h1}}}
}

type namedTag struct {
	name string
	tag  *Tag
}

// TestWildcardTagMatchesNothing: no wildcard tag matches any trapdoor,
// neither as built nor as the warehouse decodes it from storage — where
// ∞ does not decode at all, and the two finite points decode (they are on
// the curve) and then fail Tester.Test and Test on their pairing value 1.
// internal/mws's TestSearchWildcardTagMatchesNothing runs the same tags
// through a search.
func TestWildcardTagMatchesNothing(t *testing.T) {
	p, m := env(t)
	for _, w := range wildcardTags(t, p) {
		name, tag := w.name, w.tag
		stored, err := UnmarshalTag(p, MarshalTag(p, tag))
		if name == "∞" {
			if err == nil {
				t.Errorf("UnmarshalTag accepted the tag over ∞")
			}
			stored = tag
		} else if err != nil {
			t.Fatalf("UnmarshalTag refused the tag over %s, an on-curve point: %v", name, err)
		}
		for _, kw := range []string{"outage", "alert", "billing-cycle-7"} {
			td, err := NewTrapdoor(p, m, kw)
			if err != nil {
				t.Fatal(err)
			}
			tester, err := NewTester(p, td)
			if err != nil {
				t.Fatal(err)
			}
			if tester.Test(stored) || Test(p, stored, td) {
				t.Errorf("the tag over %s matched the trapdoor for %q", name, kw)
			}
		}
	}
}

// TestFirstArgumentOutsideG1: a trapdoor on the curve but outside G1 —
// (0, 0), q·S of order dividing h, G + q·S, or the honest trapdoor plus
// q·S — decodes (UnmarshalTrapdoor checks the curve, not the order) and
// is then refused by NewTester, whose walk masks it, without panicking;
// the one-shot Test matches nothing under it, neither the honest tag nor
// a wildcard. The honest trapdoor passes both and matches its tag.
func TestFirstArgumentOutsideG1(t *testing.T) {
	p, m := env(t)
	c := p.Sys.Curve
	tag, err := NewTag(p, "outage", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := NewTrapdoor(p, m, "outage")
	if err != nil {
		t.Fatal(err)
	}
	if tester, err := NewTester(p, honest); err != nil || !tester.Test(tag) {
		t.Fatalf("the honest trapdoor: %v", err)
	}
	// The wildcard tags' points are ∞, (0, 0) and q·S; all three tags,
	// the finite ones as trapdoor points too.
	wild := wildcardTags(t, p)
	two, tors := wild[1].tag.U, wild[2].tag.U
	tags := append([]namedTag{{"an honest tag", tag}}, wild...)
	for name, pt := range map[string]ec.Point{"(0, 0)": two, "q·S": tors, "G + q·S": c.Add(p.Sys.G1(), tors), "T_W + q·S": c.Add(honest.T, tors)} {
		td, err := UnmarshalTrapdoor(p, MarshalTrapdoor(p, &Trapdoor{T: pt}))
		if err != nil {
			t.Fatalf("UnmarshalTrapdoor refused %s, an on-curve point: %v", name, err)
		}
		if _, err := NewTester(p, td); err == nil {
			t.Errorf("NewTester accepted %s, a point outside G1", name)
		}
		for _, tg := range tags {
			if Test(p, tg.tag, td) {
				t.Errorf("the trapdoor over %s matched %s", name, tg.name)
			}
		}
	}
}

// TestUnmarshalTrapdoor: the decoder takes the canonical encoding of a
// finite point on the curve, in G1 or not, and refuses ∞, a point off the
// curve and a malformed encoding. NewTester refuses ∞ too.
func TestUnmarshalTrapdoor(t *testing.T) {
	p, m := env(t)
	c := p.Sys.Curve
	td, err := NewTrapdoor(p, m, "outage")
	if err != nil {
		t.Fatal(err)
	}
	good := MarshalTrapdoor(p, td)
	outside := MarshalTrapdoor(p, &Trapdoor{T: c.Add(td.T, wildcardTags(t, p)[2].tag.U)})
	offCurve := MarshalTrapdoor(p, &Trapdoor{T: ec.Point{X: td.T.X, Y: td.T.Y.Add(c.F.One())}})
	outOfRange := bytes.Clone(good)
	for i := 1; i < 1+c.F.ByteLen(); i++ {
		outOfRange[i] = 0xff
	}
	for _, row := range []struct {
		what string
		b    []byte
		ok   bool
	}{
		{"the honest trapdoor", good, true},
		{"a point outside G1", outside, true},
		{"∞", MarshalTrapdoor(p, &Trapdoor{T: c.Infinity()}), false},
		{"an off-curve point", offCurve, false},
		{"a truncated encoding", good[:len(good)-1], false},
		{"a compressed-point encoding", append([]byte{2}, good[1:]...), false},
		{"an x of p or more", outOfRange, false},
		{"nothing", nil, false},
	} {
		got, err := UnmarshalTrapdoor(p, row.b)
		if (err == nil) != row.ok {
			t.Errorf("UnmarshalTrapdoor(%s): %v, want ok %v", row.what, err, row.ok)
		}
		if err == nil && !bytes.Equal(MarshalTrapdoor(p, got), row.b) {
			t.Errorf("UnmarshalTrapdoor(%s) does not round-trip", row.what)
		}
	}
	if _, err := NewTester(p, &Trapdoor{T: c.Infinity()}); err == nil {
		t.Error("NewTester accepted ∞")
	}
}

// BenchmarkNewTester is the warehouse's per-search trapdoor work on bf80:
// the decode, curve-checked only, and the walk that builds the Tester's
// lines and checks the trapdoor's order — ≈ pairing's BenchmarkG1Precomp.
func BenchmarkNewTester(b *testing.B) {
	p, m, err := bfibe.Setup(pairing.ParamsBF80.MustSystem(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	td, err := NewTrapdoor(p, m, "outage")
	if err != nil {
		b.Fatal(err)
	}
	raw := MarshalTrapdoor(p, td)
	for b.Loop() {
		td, err := UnmarshalTrapdoor(p, raw)
		if err == nil {
			_, err = NewTester(p, td)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmarshalTag is the warehouse's per-stored-tag decode on bf80:
// the curve check alone, no multiplication by q.
func BenchmarkUnmarshalTag(b *testing.B) {
	p, _, raw := benchTag(b)
	for b.Loop() {
		if _, err := UnmarshalTag(p, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTesterTest is the per-stored-tag pairing on bf80: one
// precomputed-line pairing against the trapdoor and the hash compare.
func BenchmarkTesterTest(b *testing.B) {
	p, tester, raw := benchTag(b)
	tag, err := UnmarshalTag(p, raw)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if !tester.Test(tag) {
			b.Fatal("match failed")
		}
	}
}

// benchTag is the warehouse's search fixture on the paper-scale preset: a
// trapdoor's Tester and one stored tag for its keyword.
func benchTag(b *testing.B) (*bfibe.Params, *Tester, []byte) {
	b.Helper()
	p, m, err := bfibe.Setup(pairing.ParamsBF80.MustSystem(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	tag, err := NewTag(p, "outage", rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	td, err := NewTrapdoor(p, m, "outage")
	if err != nil {
		b.Fatal(err)
	}
	tester, err := NewTester(p, td)
	if err != nil {
		b.Fatal(err)
	}
	return p, tester, MarshalTag(p, tag)
}
