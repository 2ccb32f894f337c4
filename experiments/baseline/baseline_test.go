package baseline

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"mwskit/internal/symenc"
)

// Shared fixtures: the CA and recipients are expensive (RSA keygen), so
// they are built once. Tests use 1024-bit keys — this is a structural
// comparator, not a security artifact.
var (
	fixOnce sync.Once
	fixCA   *CA
	fixRecs []*Recipient
)

func fixtures(t *testing.T) (*CA, []*Recipient) {
	t.Helper()
	fixOnce.Do(func() {
		ca, err := NewCA(1024, rand.Reader)
		if err != nil {
			panic(err)
		}
		fixCA = ca
		for i := 0; i < 4; i++ {
			r, err := ca.Issue(fmt.Sprintf("rc-%d", i), 1024, rand.Reader)
			if err != nil {
				panic(err)
			}
			fixRecs = append(fixRecs, r)
		}
	})
	return fixCA, fixRecs
}

func TestEncryptDecryptAllRecipients(t *testing.T) {
	ca, recs := fixtures(t)
	scheme := symenc.Default()
	sender := NewSender(scheme, ca.Pool())
	msg := []byte("multi-recipient meter reading")
	env, err := sender.Encrypt(msg, recs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.WrappedKeys) != len(recs) {
		t.Fatalf("wrapped %d keys for %d recipients", len(env.WrappedKeys), len(recs))
	}
	for _, r := range recs {
		got, err := r.Decrypt(scheme, env)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%s: payload mismatch", r.Name)
		}
	}
}

func TestUnlistedRecipientCannotDecrypt(t *testing.T) {
	ca, recs := fixtures(t)
	scheme := symenc.Default()
	sender := NewSender(scheme, ca.Pool())
	env, err := sender.Encrypt([]byte("for the first two only"), recs[:2], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recs[3].Decrypt(scheme, env); err == nil {
		t.Fatal("unlisted recipient decrypted — this is the structural weakness the paper exploits")
	}
}

func TestEncryptRequiresKnownRecipients(t *testing.T) {
	ca, _ := fixtures(t)
	sender := NewSender(symenc.Default(), ca.Pool())
	if _, err := sender.Encrypt([]byte("m"), nil, rand.Reader); err == nil {
		t.Fatal("encryption without a recipient list succeeded")
	}
}

func TestForgedCertificateRejected(t *testing.T) {
	ca, _ := fixtures(t)
	// A recipient issued by a different CA must fail chain verification.
	rogueCA, err := NewCA(1024, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := rogueCA.Issue("impostor", 1024, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sender := NewSender(symenc.Default(), ca.Pool())
	if _, err := sender.Encrypt([]byte("m"), []*Recipient{rogue}, rand.Reader); err == nil {
		t.Fatal("certificate from an untrusted CA accepted")
	}
}

func TestCiphertextSizeGrowsWithRecipients(t *testing.T) {
	ca, recs := fixtures(t)
	sender := NewSender(symenc.Default(), ca.Pool())
	msg := bytes.Repeat([]byte{7}, 256)
	env1, err := sender.Encrypt(msg, recs[:1], rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	env4, err := sender.Encrypt(msg, recs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if env4.CiphertextSize() <= env1.CiphertextSize() {
		t.Fatal("envelope did not grow with recipient count")
	}
	// Exactly three extra RSA blocks (1024-bit → 128 bytes each).
	if diff := env4.CiphertextSize() - env1.CiphertextSize(); diff != 3*128 {
		t.Fatalf("size delta %d, want %d", diff, 3*128)
	}
}

func TestCacheInvalidation(t *testing.T) {
	ca, recs := fixtures(t)
	sender := NewSender(symenc.Default(), ca.Pool())
	if _, err := sender.Encrypt([]byte("m"), recs, rand.Reader); err != nil {
		t.Fatal(err)
	}
	// After membership churn the sender re-verifies everything; the
	// operation still succeeds, just repays the verification cost.
	sender.InvalidateCache()
	if _, err := sender.Encrypt([]byte("m"), recs, rand.Reader); err != nil {
		t.Fatal(err)
	}
}
