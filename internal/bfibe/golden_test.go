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
