package experiments

// BF'01's BasicIdent and FullIdent, which the paper recaps (§IV) but does
// not deploy: its protocol uses Boneh–Franklin as a KEM (§V.D), which is
// all internal/bfibe ships. Both schemes are built here from bfibe's
// exported API alone, for Ablation 1 (BenchmarkBasicVsFullIdent) and as
// the reference a differential oracle can check the KEM against.

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"os"
	"testing"
	"testing/quick"

	"mwskit/internal/bfibe"
	"mwskit/internal/ec"
	"mwskit/internal/kdf"
	"mwskit/internal/pairing"
)

// sigmaLen is the length of the Fujisaki–Okamoto seed σ in FullIdent.
const sigmaLen = 32

// mask XORs data with a kdf.Stream pad, returning a fresh slice. It is
// its own inverse and is how BasicIdent/FullIdent blind σ and M.
func mask(domain string, secret, data []byte) []byte {
	pad := kdf.Stream(domain, secret, len(data))
	out := make([]byte, len(data))
	for i := range data {
		out[i] = data[i] ^ pad[i]
	}
	return out
}

func TestMaskIsInvolution(t *testing.T) {
	if err := quick.Check(func(secret, data []byte) bool {
		masked := mask("d", secret, data)
		return bytes.Equal(mask("d", secret, masked), data)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskDoesNotAliasInput(t *testing.T) {
	data := []byte{1, 2, 3, 4}
	orig := append([]byte(nil), data...)
	_ = mask("d", []byte("s"), data)
	if !bytes.Equal(data, orig) {
		t.Fatal("mask mutated its input")
	}
}

// ciphertextBasic is a BasicIdent ciphertext (U, V) = (rP, M ⊕ H2(g_ID^r)).
type ciphertextBasic struct {
	U ec.Point
	V []byte
}

// ciphertextFull is a FullIdent ciphertext
// (U, V, W) = (rP, σ ⊕ H2(g_ID^r), M ⊕ H4(σ)) with r = H3(σ, M).
type ciphertextFull struct {
	U ec.Point
	V []byte // masked σ, fixed sigmaLen bytes
	W []byte // masked message
}

// errDecrypt is returned when a FullIdent ciphertext fails its validity
// check. The error is deliberately unspecific: distinguishing failure
// causes would hand a chosen-ciphertext adversary an oracle.
var errDecrypt = errors.New("fullident: decryption failed")

// encryptBasic encrypts msg for id under the CPA-secure BasicIdent scheme.
func encryptBasic(p *bfibe.Params, id, msg []byte, rng io.Reader) (*ciphertextBasic, error) {
	g, err := p.PairIdentity(id)
	if err != nil {
		return nil, err
	}
	r, err := p.Sys.RandomScalar(rng)
	if err != nil {
		return nil, err
	}
	pad := p.Sys.GTExpSecret(g, r)
	return &ciphertextBasic{U: p.Sys.G1Comb().Mul(r), V: mask("mwskit/bfibe/h2", pad.Bytes(), msg)}, nil
}

// decryptBasic inverts encryptBasic with the identity's private key:
// M = V ⊕ H2(ê(d_ID, U)).
func decryptBasic(p *bfibe.Params, sk *bfibe.PrivateKey, ct *ciphertextBasic) ([]byte, error) {
	if sk == nil || ct == nil {
		return nil, errors.New("basicident: nil key or ciphertext")
	}
	if ct.U.Inf || !p.Sys.Curve.IsOnCurve(ct.U) {
		return nil, errors.New("basicident: ciphertext point off curve")
	}
	pad := p.Sys.Pair(sk.D, ct.U)
	return mask("mwskit/bfibe/h2", pad.Bytes(), ct.V), nil
}

// encryptFull encrypts msg for id under the CCA-secure FullIdent scheme
// (Fujisaki–Okamoto transform over BasicIdent).
func encryptFull(p *bfibe.Params, id, msg []byte, rng io.Reader) (*ciphertextFull, error) {
	g, err := p.PairIdentity(id)
	if err != nil {
		return nil, err
	}
	sigma := make([]byte, sigmaLen)
	if _, err := io.ReadFull(rng, sigma); err != nil {
		return nil, fmt.Errorf("fullident: sigma: %w", err)
	}
	// r is secret (it determines the pad), so even this hash-derived
	// scalar takes the constant-schedule fixed-base path.
	r := p.HashToScalar("mwskit/bfibe/h3", sigma, msg)
	pad := p.Sys.GTExpSecret(g, r)
	return &ciphertextFull{
		U: p.Sys.G1Comb().Mul(r),
		V: mask("mwskit/bfibe/h2", pad.Bytes(), sigma),
		W: mask("mwskit/bfibe/h4", sigma, msg),
	}, nil
}

// decryptFull inverts encryptFull, rejecting any ciphertext whose
// re-derived randomness does not reproduce U (the FO validity check),
// which also refuses every U outside G1: r·P is always in it.
func decryptFull(p *bfibe.Params, sk *bfibe.PrivateKey, ct *ciphertextFull) ([]byte, error) {
	if sk == nil || ct == nil {
		return nil, errDecrypt
	}
	if ct.U.Inf || !p.Sys.Curve.IsOnCurve(ct.U) || len(ct.V) != sigmaLen {
		return nil, errDecrypt
	}
	pad := p.Sys.Pair(sk.D, ct.U)
	sigma := mask("mwskit/bfibe/h2", pad.Bytes(), ct.V)
	msg := mask("mwskit/bfibe/h4", sigma, ct.W)
	r := p.HashToScalar("mwskit/bfibe/h3", sigma, msg)
	if !p.Sys.G1Comb().Mul(r).Equal(ct.U) {
		return nil, errDecrypt
	}
	return msg, nil
}

// marshalCiphertextFull encodes (U, V, W) as len ‖ U ‖ len ‖ V ‖ W,
// lengths big-endian u32.
func marshalCiphertextFull(p *bfibe.Params, ct *ciphertextFull) []byte {
	u := p.Sys.Curve.Bytes(ct.U)
	out := binary.BigEndian.AppendUint32(nil, uint32(len(u)))
	out = binary.BigEndian.AppendUint32(append(out, u...), uint32(len(ct.V)))
	return append(append(out, ct.V...), ct.W...)
}

// unmarshalCiphertextFull decodes (U, V, W); U must be a canonical point
// on the curve.
func unmarshalCiphertextFull(p *bfibe.Params, b []byte) (*ciphertextFull, error) {
	u, rest, err := readChunk(b)
	if err != nil {
		return nil, err
	}
	v, rest, err := readChunk(rest)
	if err != nil {
		return nil, err
	}
	pt, err := p.Sys.Curve.PointFromBytes(u)
	if err != nil {
		return nil, fmt.Errorf("fullident: ciphertext: %w", err)
	}
	return &ciphertextFull{U: pt, V: bytes.Clone(v), W: bytes.Clone(rest)}, nil
}

func readChunk(b []byte) (chunk, rest []byte, err error) {
	if len(b) < 4 || uint32(len(b)-4) < binary.BigEndian.Uint32(b) {
		return nil, nil, errors.New("fullident: ciphertext: truncated chunk")
	}
	n := binary.BigEndian.Uint32(b)
	return b[4 : 4+n], b[4+n:], nil
}

func identParams(t testing.TB) (*bfibe.Params, *bfibe.MasterKey) {
	t.Helper()
	p, mk, err := bfibe.Setup(pairing.ParamsTest.MustSystem(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return p, mk
}

func TestBasicIdentRoundTrip(t *testing.T) {
	p, mk := identParams(t)
	id := []byte("basic@id")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range [][]byte{
		[]byte(""),
		[]byte("x"),
		[]byte("meter-reading: 42.7 kWh"),
		bytes.Repeat([]byte("long "), 1000),
	} {
		ct, err := encryptBasic(p, id, msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decryptBasic(p, sk, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("BasicIdent round trip failed for %d-byte message", len(msg))
		}
	}
}

func TestBasicIdentWrongKeyGarbles(t *testing.T) {
	p, mk := identParams(t)
	msg := []byte("secret meter data")
	ct, err := encryptBasic(p, []byte("intended"), msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := mk.Extract(p, []byte("eavesdropper"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decryptBasic(p, wrong, ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("wrong identity decrypted a BasicIdent ciphertext")
	}
}

func TestFullIdentRoundTrip(t *testing.T) {
	p, mk := identParams(t)
	id := []byte("full@id")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range [][]byte{
		[]byte(""),
		[]byte("m"),
		[]byte("reading=1234;unit=kWh;ts=1278000000"),
		bytes.Repeat([]byte{0xAB}, 4096),
	} {
		ct, err := encryptFull(p, id, msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decryptFull(p, sk, ct)
		if err != nil {
			t.Fatalf("decryptFull: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("FullIdent round trip mismatch")
		}
	}
}

// TestFullIdentRejectsTampering: every ciphertext the FO check refuses
// yields an error and no plaintext — bytes released beside the error
// would be the chosen-ciphertext decryption oracle the check exists to
// close.
func TestFullIdentRejectsTampering(t *testing.T) {
	p, mk := identParams(t)
	id := []byte("full@id")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("authentic message")
	reject := func(t *testing.T, sk *bfibe.PrivateKey, ct *ciphertextFull) {
		t.Helper()
		if pt, err := decryptFull(p, sk, ct); err == nil || pt != nil {
			t.Fatalf("decryptFull = %q, %v; want no plaintext and an error", pt, err)
		}
	}
	fresh := func() *ciphertextFull {
		ct, err := encryptFull(p, id, msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}

	t.Run("FlippedW", func(t *testing.T) {
		ct := fresh()
		ct.W[0] ^= 1
		reject(t, sk, ct)
	})
	t.Run("FlippedV", func(t *testing.T) {
		ct := fresh()
		ct.V[3] ^= 0x80
		reject(t, sk, ct)
	})
	t.Run("SwappedU", func(t *testing.T) {
		ct := fresh()
		ct.U = fresh().U
		reject(t, sk, ct)
	})
	t.Run("WrongKey", func(t *testing.T) {
		wrong, _ := mk.Extract(p, []byte("other"))
		reject(t, wrong, fresh())
	})
	t.Run("NilInputs", func(t *testing.T) {
		reject(t, nil, nil)
	})
	t.Run("ShortV", func(t *testing.T) {
		ct := fresh()
		ct.V = ct.V[:5]
		reject(t, sk, ct)
	})
}

func TestCiphertextFullSerialization(t *testing.T) {
	p, mk := identParams(t)
	id := []byte("wire@id")
	sk, _ := mk.Extract(p, id)
	msg := []byte("over the wire")
	ct, err := encryptFull(p, id, msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b := marshalCiphertextFull(p, ct)
	back, err := unmarshalCiphertextFull(p, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decryptFull(p, sk, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("deserialized ciphertext failed to decrypt")
	}
	for cut := 1; cut < 8; cut++ {
		if _, err := unmarshalCiphertextFull(p, b[:len(b)/cut/2]); err == nil {
			t.Fatal("truncated ciphertext accepted")
		}
	}
}

// TestIdentOutsideG1 holds both schemes to the rule for points outside
// G1 (DESIGN.md §9). A U + T, with T = q·S of order dividing h, decodes;
// BasicIdent, CPA-only, decrypts it to U's plaintext, and FullIdent's
// re-encryption check refuses it. A private key over a point outside G1
// — (0, 0), q·S or G + q·S, none of which extraction makes — never
// panics: FullIdent refuses, and BasicIdent returns no plaintext.
func TestIdentOutsideG1(t *testing.T) {
	p, mk := identParams(t)
	c := p.Sys.Curve
	id, msg := []byte("victim"), []byte("basic")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	var tors ec.Point
	for x := int64(1); tors.X.Field() == nil && x < 10000; x++ {
		xe := c.F.FromInt64(x)
		if y, ok := xe.Square().Mul(xe).Add(xe).Sqrt(); ok && !y.IsZero() {
			if s, err := c.NewPoint(xe, y); err == nil && !c.ScalarBaseOrderCheck(s) {
				tors = c.ScalarMult(s, c.Q)
			}
		}
	}
	two, err := c.NewPoint(c.F.Zero(), c.F.Zero())
	if err != nil || tors.X.Field() == nil || tors.Inf {
		t.Fatalf("torsion points: %v, q·S = %v", err, tors)
	}

	ctb, err := encryptBasic(p, id, msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decryptBasic(p, sk, &ciphertextBasic{U: c.Add(ctb.U, tors), V: ctb.V}); err != nil || !bytes.Equal(got, msg) {
		t.Errorf("decryptBasic(U + T) = %q, %v; want U's plaintext", got, err)
	}
	ctf, err := encryptFull(p, id, msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shifted := *ctf
	shifted.U = c.Add(ctf.U, tors)
	if back, err := unmarshalCiphertextFull(p, marshalCiphertextFull(p, &shifted)); err != nil {
		t.Errorf("unmarshalCiphertextFull refused U + T: %v", err)
	} else if _, err := decryptFull(p, sk, back); err != errDecrypt {
		t.Errorf("decryptFull(U + T) = %v, want errDecrypt", err)
	}

	for name, d := range map[string]ec.Point{"(0, 0)": two, "q·S": tors, "G + q·S": c.Add(p.Sys.G1(), tors)} {
		bad := &bfibe.PrivateKey{ID: id, D: d}
		if _, err := decryptFull(p, bad, ctf); err != errDecrypt {
			t.Errorf("decryptFull with a key over %s = %v, want errDecrypt", name, err)
		}
		if got, err := decryptBasic(p, bad, ctb); err != nil || bytes.Equal(got, msg) {
			t.Errorf("decryptBasic with a key over %s = %q, %v", name, got, err)
		}
	}
}

// counterStream is SHA-256 in counter mode over a seed, the deterministic
// entropy source of the bfibe goldens (internal/bfibe/testdata/README.md).
type counterStream struct {
	seed []byte
	ctr  uint64
	buf  []byte
}

func (s *counterStream) Read(p []byte) (int, error) {
	for i := range p {
		if len(s.buf) == 0 {
			h := sha256.Sum256(binary.BigEndian.AppendUint64(bytes.Clone(s.seed), s.ctr))
			s.ctr++
			s.buf = h[:]
		}
		p[i] = s.buf[0]
		s.buf = s.buf[1:]
	}
	return len(p), nil
}

// TestGoldenFullIdent feeds this copy of FullIdent the ciphertexts that
// bfibe's FullIdent made before it moved here, read in place from the
// golden file bfibe's TestGoldenParentArtifacts reads (per preset): each
// decrypts to its message under the parent's key, and encrypting the
// message again from the same entropy reproduces it byte for byte.
func TestGoldenFullIdent(t *testing.T) {
	raw, err := os.ReadFile("../internal/bfibe/testdata/golden_parent_pr27.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Presets map[string]struct {
			Master     string `json:"master"`
			RandSeed   string `json:"rand_seed"`
			ID         string `json:"id"`
			PrivateKey string `json:"private_key"`
			Message    string `json:"message"`
			FullIdent  string `json:"fullident_ciphertext"`
		} `json:"presets"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Presets) != len(pairing.Presets) {
		t.Fatalf("golden file covers %d presets, tree has %d", len(golden.Presets), len(pairing.Presets))
	}
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, v := range golden.Presets {
		if name == "bf112" && testing.Short() {
			continue
		}
		sys := pairing.Presets[name].MustSystem()
		s, _ := new(big.Int).SetString(v.Master, 16)
		mk, err := bfibe.UnmarshalMasterKey(sys, s.FillBytes(make([]byte, sys.Curve.ScalarLen())))
		if err != nil {
			t.Fatal(err)
		}
		p := bfibe.ParamsFromMaster(sys, mk)
		sk, err := bfibe.UnmarshalPrivateKey(p, unhex(v.PrivateKey))
		if err != nil {
			t.Fatalf("%s: parent's private key: %v", name, err)
		}
		id, msg := unhex(v.ID), unhex(v.Message)
		ct, err := unmarshalCiphertextFull(p, unhex(v.FullIdent))
		if err != nil {
			t.Fatalf("%s: parent's FullIdent ciphertext: %v", name, err)
		}
		if got, err := decryptFull(p, sk, ct); err != nil || !bytes.Equal(got, msg) {
			t.Errorf("%s: decryptFull of the parent's ciphertext: %q, %v", name, got, err)
		}
		mine, err := encryptFull(p, id, msg, &counterStream{seed: []byte(v.RandSeed)})
		if err != nil || hex.EncodeToString(marshalCiphertextFull(p, mine)) != v.FullIdent {
			t.Errorf("%s: encryptFull differs from the parent commit's (%v)", name, err)
		}
	}
}
