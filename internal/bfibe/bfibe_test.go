package bfibe

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"mwskit/internal/kdf"
	"mwskit/internal/pairing"
)

var (
	setupOnce sync.Once
	tParams   *Params
	tMaster   *MasterKey
)

func testSetup(t *testing.T) (*Params, *MasterKey) {
	t.Helper()
	setupOnce.Do(func() {
		sys := pairing.ParamsTest.MustSystem()
		var err error
		tParams, tMaster, err = Setup(sys, rand.Reader)
		if err != nil {
			panic(err)
		}
	})
	return tParams, tMaster
}

// masterBig returns the master scalar as the big.Int the public
// reference multiplier takes.
func masterBig(p *Params, mk *MasterKey) *big.Int {
	return new(big.Int).SetBytes(MarshalMasterKey(p.Sys, mk))
}

func TestSetupProducesValidParams(t *testing.T) {
	p, mk := testSetup(t)
	if p.PPub.Inf {
		t.Fatal("P_pub is the identity")
	}
	if !p.Sys.Curve.IsOnCurve(p.PPub) {
		t.Fatal("P_pub off curve")
	}
	s := masterBig(p, mk)
	if s.Sign() <= 0 || s.Cmp(p.Sys.Curve.Q) >= 0 {
		t.Fatal("master scalar out of range")
	}
	// P_pub really is s·P.
	if !p.Sys.Curve.ScalarMult(p.Sys.G1(), s).Equal(p.PPub) {
		t.Fatal("P_pub != sP")
	}
}

func TestSetupNilSystem(t *testing.T) {
	if _, _, err := Setup(nil, rand.Reader); err == nil {
		t.Fatal("Setup accepted a nil system")
	}
}

func TestExtractIsDeterministicPerID(t *testing.T) {
	p, mk := testSetup(t)
	a, err := mk.Extract(p, []byte("alice@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk.Extract(p, []byte("alice@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	if !a.D.Equal(b.D) {
		t.Fatal("Extract not deterministic")
	}
	c, err := mk.Extract(p, []byte("bob@example.com"))
	if err != nil {
		t.Fatal(err)
	}
	if a.D.Equal(c.D) {
		t.Fatal("different identities produced the same key")
	}
}

func TestExtractKeyIsScalarMultipleOfQID(t *testing.T) {
	p, mk := testSetup(t)
	id := []byte("carol")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.HashIdentity(id)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Sys.Curve.ScalarMult(q, masterBig(p, mk)).Equal(sk.D) {
		t.Fatal("d_ID != s·Q_ID")
	}
	if !bytes.Equal(sk.ID, id) {
		t.Fatal("private key ID mismatch")
	}
}

func TestKEMRoundTrip(t *testing.T) {
	p, mk := testSetup(t)
	id := []byte("ELECTRIC-APT-SV-CA||nonce-1")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := p.NewDecapsulator(sk)
	if err != nil {
		t.Fatal(err)
	}
	for _, keyLen := range []int{8, 16, 32} {
		enc, key, err := p.Encapsulate(id, keyLen, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if len(key) != keyLen {
			t.Fatalf("key length %d, want %d", len(key), keyLen)
		}
		got, err := p.Decapsulate(sk, enc, keyLen)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(key, got) {
			t.Fatal("KEM round trip key mismatch")
		}
		// The precomputed-lines path, fed through the wire decoder as
		// rclient feeds it, derives the same key.
		wired, err := UnmarshalEncapsulation(p, MarshalEncapsulation(p, enc))
		if err != nil {
			t.Fatal(err)
		}
		got, err = dec.Decapsulate(wired, keyLen)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(key, got) {
			t.Fatal("Decapsulator key differs from Encapsulate's")
		}
	}
}

func TestKEMWrongIdentityFails(t *testing.T) {
	p, mk := testSetup(t)
	enc, key, err := p.Encapsulate([]byte("right-id"), 32, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := mk.Extract(p, []byte("wrong-id"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Decapsulate(wrong, enc, 32)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(key, got) {
		t.Fatal("wrong identity recovered the session key")
	}
}

func TestKEMFreshness(t *testing.T) {
	p, _ := testSetup(t)
	id := []byte("id")
	e1, k1, err := p.Encapsulate(id, 32, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	e2, k2, err := p.Encapsulate(id, 32, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, k2) {
		t.Fatal("two encapsulations produced the same key")
	}
	if e1.u.Equal(e2.u) {
		t.Fatal("two encapsulations produced the same transport point")
	}
}

func TestBasicIdentRoundTrip(t *testing.T) {
	p, mk := testSetup(t)
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
		ct, err := p.EncryptBasic(id, msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.DecryptBasic(sk, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("BasicIdent round trip failed for %d-byte message", len(msg))
		}
	}
}

func TestBasicIdentWrongKeyGarbles(t *testing.T) {
	p, mk := testSetup(t)
	msg := []byte("secret meter data")
	ct, err := p.EncryptBasic([]byte("intended"), msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := mk.Extract(p, []byte("eavesdropper"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.DecryptBasic(wrong, ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("wrong identity decrypted a BasicIdent ciphertext")
	}
}

func TestFullIdentRoundTrip(t *testing.T) {
	p, mk := testSetup(t)
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
		ct, err := p.EncryptFull(id, msg, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.DecryptFull(sk, ct)
		if err != nil {
			t.Fatalf("DecryptFull: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("FullIdent round trip mismatch")
		}
	}
}

func TestFullIdentRejectsTampering(t *testing.T) {
	p, mk := testSetup(t)
	id := []byte("full@id")
	sk, err := mk.Extract(p, id)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("authentic message")

	t.Run("FlippedW", func(t *testing.T) {
		ct, _ := p.EncryptFull(id, msg, rand.Reader)
		ct.W[0] ^= 1
		if _, err := p.DecryptFull(sk, ct); err == nil {
			t.Fatal("tampered W accepted")
		}
	})
	t.Run("FlippedV", func(t *testing.T) {
		ct, _ := p.EncryptFull(id, msg, rand.Reader)
		ct.V[3] ^= 0x80
		if _, err := p.DecryptFull(sk, ct); err == nil {
			t.Fatal("tampered V accepted")
		}
	})
	t.Run("SwappedU", func(t *testing.T) {
		ct1, _ := p.EncryptFull(id, msg, rand.Reader)
		ct2, _ := p.EncryptFull(id, msg, rand.Reader)
		ct1.U = ct2.U
		if _, err := p.DecryptFull(sk, ct1); err == nil {
			t.Fatal("mixed-and-matched ciphertext accepted")
		}
	})
	t.Run("WrongKey", func(t *testing.T) {
		ct, _ := p.EncryptFull(id, msg, rand.Reader)
		wrong, _ := mk.Extract(p, []byte("other"))
		if _, err := p.DecryptFull(wrong, ct); err == nil {
			t.Fatal("FullIdent decrypted under the wrong identity")
		}
	})
	t.Run("NilInputs", func(t *testing.T) {
		if _, err := p.DecryptFull(nil, nil); err == nil {
			t.Fatal("nil inputs accepted")
		}
	})
	t.Run("ShortV", func(t *testing.T) {
		ct, _ := p.EncryptFull(id, msg, rand.Reader)
		ct.V = ct.V[:5]
		if _, err := p.DecryptFull(sk, ct); err == nil {
			t.Fatal("truncated V accepted")
		}
	})
}

// TestHashToScalarMatchesBigReference holds H3 to the value earlier
// versions computed in math/big, (seed mod (q−1)) + 1 over the same
// expansion: FullIdent ciphertexts and IBS signatures made before still
// check.
func TestHashToScalarMatchesBigReference(t *testing.T) {
	p, _ := testSetup(t)
	c := p.Sys.Curve
	qm1 := new(big.Int).Sub(c.Q, big.NewInt(1))
	for i := 0; i < 64; i++ {
		parts := [][]byte{{byte(i)}, bytes.Repeat([]byte{0xa5}, i)}
		want := new(big.Int).SetBytes(kdf.ScalarSeed("d", (c.Q.BitLen()+7)/8+8, parts...))
		want.Mod(want, qm1).Add(want, big.NewInt(1))
		if got := new(big.Int).SetBytes(c.ScalarBytes(p.HashToScalar("d", parts...))); got.Cmp(want) != 0 {
			t.Fatalf("HashToScalar(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestMasterKeyPersistence(t *testing.T) {
	p, mk := testSetup(t)
	enc := MarshalMasterKey(p.Sys, mk)
	if len(enc) != p.Sys.Curve.ScalarLen() {
		t.Fatalf("master key encoded in %d bytes, want the fixed %d", len(enc), p.Sys.Curve.ScalarLen())
	}
	back, err := UnmarshalMasterKey(p.Sys, enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.s != mk.s {
		t.Fatal("master key round trip changed the scalar")
	}
	// The minimal-length encoding earlier versions wrote still opens.
	if old, err := UnmarshalMasterKey(p.Sys, masterBig(p, mk).Bytes()); err != nil || old.s != mk.s {
		t.Fatalf("minimal-length master key: %v", err)
	}
	// Rebuilt params must match the originals.
	p2 := ParamsFromMaster(p.Sys, back)
	if !p2.PPub.Equal(p.PPub) {
		t.Fatal("rebuilt P_pub differs")
	}
	if _, err := UnmarshalMasterKey(p.Sys, nil); err == nil {
		t.Fatal("empty master key accepted")
	}
}

func TestParamsSerialization(t *testing.T) {
	p, _ := testSetup(t)
	enc := MarshalParams(p)
	back, err := UnmarshalParams(p.Sys, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !back.PPub.Equal(p.PPub) {
		t.Fatal("params round trip changed P_pub")
	}
	if _, err := UnmarshalParams(p.Sys, []byte{1, 2}); err == nil {
		t.Fatal("garbage params accepted")
	}
}

func TestPrivateKeySerialization(t *testing.T) {
	p, mk := testSetup(t)
	sk, err := mk.Extract(p, []byte("serialize-me"))
	if err != nil {
		t.Fatal(err)
	}
	enc := MarshalPrivateKey(p, sk)
	back, err := UnmarshalPrivateKey(p, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !back.D.Equal(sk.D) || !bytes.Equal(back.ID, sk.ID) {
		t.Fatal("private key round trip mismatch")
	}
	if _, err := UnmarshalPrivateKey(p, enc[:3]); err == nil {
		t.Fatal("truncated private key accepted")
	}
	if _, err := UnmarshalPrivateKey(p, []byte{0, 0, 0, 200, 1}); err == nil {
		t.Fatal("length-lying private key accepted")
	}
}

func TestEncapsulationSerialization(t *testing.T) {
	p, _ := testSetup(t)
	enc, _, err := p.Encapsulate([]byte("id"), 16, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b := MarshalEncapsulation(p, enc)
	back, err := UnmarshalEncapsulation(p, b)
	if err != nil {
		t.Fatal(err)
	}
	if !back.u.Equal(enc.u) {
		t.Fatal("encapsulation round trip mismatch")
	}
}

func TestCiphertextFullSerialization(t *testing.T) {
	p, mk := testSetup(t)
	id := []byte("wire@id")
	sk, _ := mk.Extract(p, id)
	msg := []byte("over the wire")
	ct, err := p.EncryptFull(id, msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b := MarshalCiphertextFull(p, ct)
	back, err := UnmarshalCiphertextFull(p, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.DecryptFull(sk, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("deserialized ciphertext failed to decrypt")
	}
	for cut := 1; cut < 8; cut++ {
		if _, err := UnmarshalCiphertextFull(p, b[:len(b)/cut/2]); err == nil {
			t.Fatal("truncated ciphertext accepted")
		}
	}
}

// TestMasterKeyFromScalarRejectsBad holds the master-key decoder to
// [1, q−1]: s ≡ 0 (mod q) would publish P_pub = ∞ and make every g_ID 1.
func TestMasterKeyFromScalarRejectsBad(t *testing.T) {
	p, _ := testSetup(t)
	q, n := p.Sys.Curve.Q, p.Sys.Curve.ScalarLen()
	for name, b := range map[string][]byte{
		"zero":      make([]byte, n),
		"q":         q.Bytes(),
		"q+1":       new(big.Int).Add(q, big.NewInt(1)).Bytes(),
		"2q":        new(big.Int).Lsh(q, 1).Bytes(),
		"over-long": append(make([]byte, n), 1),
		"201 bytes": append(make([]byte, 200), 1),
	} {
		if _, err := UnmarshalMasterKey(p.Sys, b); err == nil {
			t.Errorf("%s accepted as a master key", name)
		}
	}
}
