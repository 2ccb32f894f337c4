package rclient

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/pairing"
	"mwskit/internal/symenc"
	"mwskit/internal/wire"
)

var (
	envOnce sync.Once
	envP    *bfibe.Params
	envM    *bfibe.MasterKey
	envRSA  *rsa.PrivateKey
)

func env(t *testing.T) (*bfibe.Params, *bfibe.MasterKey, *rsa.PrivateKey) {
	t.Helper()
	envOnce.Do(func() {
		sys := pairing.ParamsTest.MustSystem()
		var err error
		envP, envM, err = bfibe.Setup(sys, rand.Reader)
		if err != nil {
			panic(err)
		}
		envRSA, err = rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			panic(err)
		}
	})
	return envP, envM, envRSA
}

func TestNewValidation(t *testing.T) {
	params, _, key := env(t)
	if _, err := New("", []byte("pw"), key, params); err == nil {
		t.Error("empty identity accepted")
	}
	if _, err := New("rc", nil, key, params); err == nil {
		t.Error("empty password accepted")
	}
	if _, err := New("rc", []byte("pw"), nil, params); err == nil {
		t.Error("nil private key accepted")
	}
	if _, err := New("rc", []byte("pw"), key, nil); err == nil {
		t.Error("nil params accepted")
	}
	c, err := New("rc", []byte("pw"), key, params)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() != "rc" {
		t.Error("ID lost")
	}
}

// buildEnvelope plays the device + MWS roles offline to produce an
// Envelope and its matching private key.
func buildEnvelope(t *testing.T, params *bfibe.Params, master *bfibe.MasterKey, payload []byte) (*Envelope, *bfibe.PrivateKey) {
	t.Helper()
	scheme := symenc.Default()
	a := attr.Attribute("ELECTRIC-X")
	nonce, err := attr.NewNonce(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	identity := attr.Identity(a, nonce)
	enc, key, err := params.Encapsulate(identity, scheme.KeyLen(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	u := bfibe.MarshalEncapsulation(params, enc)
	aad := wire.MessageAAD("meter", 1278000000, nonce[:], u)
	ct, err := scheme.Seal(key, payload, aad)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := master.Extract(params, identity)
	if err != nil {
		t.Fatal(err)
	}
	return &Envelope{
		Seq:        7,
		AID:        1,
		Nonce:      nonce[:],
		U:          u,
		Ciphertext: ct,
		Scheme:     scheme.Name(),
		DeviceID:   "meter",
		Timestamp:  1278000000,
	}, sk
}

func TestDecrypt(t *testing.T) {
	params, master, key := env(t)
	c, err := New("rc", []byte("pw"), key, params)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("offline decrypt")
	env, sk := buildEnvelope(t, params, master, payload)
	m, err := c.Decrypt(env, sk)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Payload, payload) || m.Seq != 7 || m.DeviceID != "meter" {
		t.Fatalf("decrypted message wrong: %+v", m)
	}
}

func TestDecryptRejectsTampering(t *testing.T) {
	params, master, key := env(t)
	c, err := New("rc", []byte("pw"), key, params)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() (*Envelope, *bfibe.PrivateKey) {
		return buildEnvelope(t, params, master, []byte("payload"))
	}

	t.Run("Ciphertext", func(t *testing.T) {
		env, sk := fresh()
		env.Ciphertext[0] ^= 1
		if _, err := c.Decrypt(env, sk); err == nil {
			t.Fatal("tampered ciphertext accepted")
		}
	})
	t.Run("DeviceIDBinding", func(t *testing.T) {
		// The AAD binds the device ID: a relabeled envelope must fail.
		env, sk := fresh()
		env.DeviceID = "impostor-meter"
		if _, err := c.Decrypt(env, sk); err == nil {
			t.Fatal("relabeled device accepted")
		}
	})
	t.Run("TimestampBinding", func(t *testing.T) {
		env, sk := fresh()
		env.Timestamp++
		if _, err := c.Decrypt(env, sk); err == nil {
			t.Fatal("shifted timestamp accepted")
		}
	})
	t.Run("WrongKey", func(t *testing.T) {
		env, _ := fresh()
		otherNonce, _ := attr.NewNonce(rand.Reader)
		wrong, err := master.Extract(params, attr.Identity("ELECTRIC-X", otherNonce))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decrypt(env, wrong); err == nil {
			t.Fatal("wrong-nonce key accepted")
		}
	})
	t.Run("UnknownScheme", func(t *testing.T) {
		env, sk := fresh()
		env.Scheme = "ROT13"
		if _, err := c.Decrypt(env, sk); err == nil {
			t.Fatal("unknown scheme accepted")
		}
	})
	t.Run("GarbageU", func(t *testing.T) {
		env, sk := fresh()
		env.U = []byte{1, 2, 3}
		if _, err := c.Decrypt(env, sk); err == nil {
			t.Fatal("garbage transport point accepted")
		}
	})
}

// TestUnknownSchemeIsLocated: this test binary links what rcclient links —
// the two AES-GCM profiles and no paper-era cipher — so an envelope a
// device sealed with one fails typed and names its sequence number, and
// the caller can resume the page after it.
func TestUnknownSchemeIsLocated(t *testing.T) {
	if got := symenc.Names(); !slices.Equal(got, []string{"AES-128-GCM", "AES-256-GCM"}) {
		t.Fatalf("schemes linked beside rclient: %v", got)
	}
	params, master, key := env(t)
	c, err := New("rc", []byte("pw"), key, params)
	if err != nil {
		t.Fatal(err)
	}
	env, sk := buildEnvelope(t, params, master, []byte("sealed by a paper-era device"))
	env.Scheme = "DES-CBC-HMAC"
	_, err = c.Decrypt(env, sk)
	if !errors.Is(err, symenc.ErrUnknownScheme) {
		t.Fatalf("got %v, want symenc.ErrUnknownScheme", err)
	}
	if want := `message 7: symenc: unknown scheme "DES-CBC-HMAC"`; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not locate the message (%s)", err, want)
	}
}

func TestKeyIndexOf(t *testing.T) {
	n1 := bytes.Repeat([]byte{1}, attr.NonceLen)
	n2 := bytes.Repeat([]byte{2}, attr.NonceLen)
	if keyIndexOf(1, n1) != keyIndexOf(1, n1) {
		t.Fatal("identical inputs produced different indices")
	}
	if keyIndexOf(1, n1) == keyIndexOf(2, n1) {
		t.Fatal("AID not part of the index")
	}
	if keyIndexOf(1, n1) == keyIndexOf(1, n2) {
		t.Fatal("nonce not part of the index")
	}
}
