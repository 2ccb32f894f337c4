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
// encoding of an order-q point plus a full-length check value.
func FuzzUnmarshalTag(f *testing.F) {
	p, _ := env(f)
	tag, err := NewTag(p, "fuzz", rand.Reader)
	if err != nil {
		f.Fatal(err)
	}
	good := MarshalTag(p, tag)
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add([]byte{0, 0, 0, 1, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := UnmarshalTag(p, b)
		if err != nil {
			return
		}
		if len(got.C) != tagHashLen || !p.Sys.Curve.ScalarBaseOrderCheck(got.U) {
			t.Fatalf("accepted a malformed tag: %x", b)
		}
		if !bytes.Equal(MarshalTag(p, got), b) {
			t.Fatalf("accepted a non-canonical encoding: %x", b)
		}
	})
}
