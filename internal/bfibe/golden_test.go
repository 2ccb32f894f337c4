package bfibe_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/big"
	"os"
	"testing"

	"mwskit/internal/bfibe"
	"mwskit/internal/ibs"
	"mwskit/internal/pairing"
	"mwskit/internal/peks"
)

// counterStream is SHA-256 in counter mode over a seed, the deterministic
// entropy source of the goldens (testdata/README.md; the same stream as
// internal/peks's golden test).
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

// TestGoldenGID pins g_ID, the encapsulation and session key drawn from
// fixed entropy, and a PEKS tag's check value to the bytes the parent
// commit produced by clearing H1's cofactor on the curve and running a
// full pairing (testdata/README.md) — per preset, with the g_ID cache on
// (cold, then served from the cache) and with it disabled.
func TestGoldenGID(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_gid.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Presets map[string]struct {
			Master     string `json:"master"`
			RandSeed   string `json:"rand_seed"`
			KeyLen     int    `json:"key_len"`
			Identities []struct {
				ID            string `json:"id"`
				GID           string `json:"g_id"`
				Encapsulation string `json:"encapsulation"`
				SessionKey    string `json:"session_key"`
			} `json:"identities"`
			Keyword    string `json:"keyword"`
			KeywordGID string `json:"keyword_g_id"`
			TagCheck   string `json:"tag_check"`
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
		for _, cacheCap := range []int{256, 0} {
			p := bfibe.ParamsFromMaster(sys, mk)
			p.SetGIDCacheCap(cacheCap)
			wantCached := min(cacheCap, len(v.Identities))
			for _, want := range v.Identities {
				id, _ := hex.DecodeString(want.ID)
				g, err := p.PairIdentity(id)
				if err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(g.Bytes()); got != want.GID {
					t.Errorf("%s: g_ID of %q differs from the parent commit's\n got %s\nwant %s", name, id, got, want.GID)
				}
				// Twice: with the cache on, the second key is derived from
				// the cached g_ID.
				for pass := 0; pass < 2; pass++ {
					enc, key, err := p.Encapsulate(id, v.KeyLen, &counterStream{seed: []byte(v.RandSeed)})
					if err != nil {
						t.Fatal(err)
					}
					if got := hex.EncodeToString(key); got != want.SessionKey {
						t.Errorf("%s: cache %d, pass %d: session key for %q differs from the parent commit's", name, cacheCap, pass, id)
					}
					if got := hex.EncodeToString(bfibe.MarshalEncapsulation(p, enc)); got != want.Encapsulation {
						t.Errorf("%s: cache %d, pass %d: encapsulation for %q differs from the parent commit's", name, cacheCap, pass, id)
					}
				}
			}
			if p.GIDCacheLen() != wantCached {
				t.Errorf("%s: g_ID cache holds %d entries, want %d", name, p.GIDCacheLen(), wantCached)
			}

			g, err := p.PairIdentity(peks.KeywordIdentity(v.Keyword))
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(g.Bytes()); got != v.KeywordGID {
				t.Errorf("%s: keyword pairing value differs from the parent commit's", name)
			}
			tag, err := peks.NewTag(p, v.Keyword, &counterStream{seed: []byte(v.RandSeed)})
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(tag.C); got != v.TagCheck {
				t.Errorf("%s: tag check value differs from the parent commit's", name)
			}
			if p.GIDCacheLen() != wantCached {
				t.Errorf("%s: a keyword identity entered the g_ID cache", name)
			}
		}
	}
}

// TestGoldenParentArtifacts feeds this commit what its parent made
// (testdata/golden_parent_pr27.md), per preset: an extracted
// key, an encapsulation, a FullIdent ciphertext, a PEKS tag with its
// trapdoor and an IBS signature. Each must decode, and decapsulate,
// decrypt, match or verify to the parent's answer — and everything
// deterministic must come out of this commit byte for byte: the retyped
// kernels changed no formula.
func TestGoldenParentArtifacts(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_parent_pr27.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Presets map[string]struct {
			Master        string `json:"master"`
			RandSeed      string `json:"rand_seed"`
			KeyLen        int    `json:"key_len"`
			ID            string `json:"id"`
			PrivateKey    string `json:"private_key"`
			Encapsulation string `json:"encapsulation"`
			SessionKey    string `json:"session_key"`
			Message       string `json:"message"`
			FullIdent     string `json:"fullident_ciphertext"`
			Keyword       string `json:"keyword"`
			Tag           string `json:"tag"`
			Trapdoor      string `json:"trapdoor"`
			Device        string `json:"device"`
			DeviceKey     string `json:"device_key"`
			Signature     string `json:"signature"`
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
		rng := func() *counterStream { return &counterStream{seed: []byte(v.RandSeed)} }
		id, msg := unhex(v.ID), unhex(v.Message)

		// The parent's key decodes, and Extract still makes it.
		sk, err := bfibe.UnmarshalPrivateKey(p, unhex(v.PrivateKey))
		if err != nil {
			t.Fatalf("%s: parent's private key: %v", name, err)
		}
		if mine, err := mk.Extract(p, id); err != nil || hex.EncodeToString(bfibe.MarshalPrivateKey(p, mine)) != v.PrivateKey {
			t.Errorf("%s: Extract differs from the parent commit's (%v)", name, err)
		}

		// The parent's encapsulation decapsulates, both ways, to its key.
		enc, err := bfibe.UnmarshalEncapsulation(p, unhex(v.Encapsulation))
		if err != nil {
			t.Fatalf("%s: parent's encapsulation: %v", name, err)
		}
		if key, err := p.Decapsulate(sk, enc, v.KeyLen); err != nil || hex.EncodeToString(key) != v.SessionKey {
			t.Errorf("%s: Decapsulate of the parent's encapsulation gives another key (%v)", name, err)
		}
		d, err := p.NewDecapsulator(sk)
		if err != nil {
			t.Fatal(err)
		}
		if key, err := d.Decapsulate(enc, v.KeyLen); err != nil || hex.EncodeToString(key) != v.SessionKey {
			t.Errorf("%s: Decapsulator on the parent's encapsulation gives another key (%v)", name, err)
		}

		// The parent's FullIdent ciphertext decrypts, and is reproduced.
		ct, err := bfibe.UnmarshalCiphertextFull(p, unhex(v.FullIdent))
		if err != nil {
			t.Fatalf("%s: parent's FullIdent ciphertext: %v", name, err)
		}
		if got, err := p.DecryptFull(sk, ct); err != nil || string(got) != string(msg) {
			t.Errorf("%s: DecryptFull of the parent's ciphertext: %q, %v", name, got, err)
		}
		if mine, err := p.EncryptFull(id, msg, rng()); err != nil || hex.EncodeToString(bfibe.MarshalCiphertextFull(p, mine)) != v.FullIdent {
			t.Errorf("%s: EncryptFull differs from the parent commit's (%v)", name, err)
		}

		// The parent's tag matches its trapdoor and this commit's; a
		// trapdoor for another keyword does not.
		tag, err := peks.UnmarshalTag(p, unhex(v.Tag))
		if err != nil {
			t.Fatalf("%s: parent's tag: %v", name, err)
		}
		td, err := peks.UnmarshalTrapdoor(p, unhex(v.Trapdoor))
		if err != nil {
			t.Fatalf("%s: parent's trapdoor: %v", name, err)
		}
		mine, err := peks.NewTrapdoor(p, mk, v.Keyword)
		if err != nil || hex.EncodeToString(peks.MarshalTrapdoor(p, mine)) != v.Trapdoor {
			t.Errorf("%s: NewTrapdoor differs from the parent commit's (%v)", name, err)
		}
		other, err := peks.NewTrapdoor(p, mk, v.Keyword+"-not")
		if err != nil {
			t.Fatal(err)
		}
		if !peks.Test(p, tag, td) || !peks.Test(p, tag, mine) || peks.Test(p, tag, other) {
			t.Errorf("%s: the parent's tag does not match exactly its keyword's trapdoors", name)
		}

		// The parent's signature verifies, and Sign reproduces it.
		sig, err := ibs.Unmarshal(p, unhex(v.Signature))
		if err != nil {
			t.Fatalf("%s: parent's signature: %v", name, err)
		}
		if !ibs.Verify(p, ibs.DeviceIdentity(v.Device), msg, sig) || ibs.Verify(p, ibs.DeviceIdentity(v.Device), id, sig) {
			t.Errorf("%s: the parent's signature does not verify on exactly its message", name)
		}
		dk, err := bfibe.UnmarshalPrivateKey(p, unhex(v.DeviceKey))
		if err != nil {
			t.Fatalf("%s: parent's device key: %v", name, err)
		}
		if again, err := ibs.Sign(p, dk, msg, rng()); err != nil || hex.EncodeToString(again.Marshal(p)) != v.Signature {
			t.Errorf("%s: Sign differs from the parent commit's (%v)", name, err)
		}
	}
}
