package userdb

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"sync"
	"testing"

	"mwskit/internal/storage"
)

// testRSAKey is generated once; RSA keygen is the slow part of these tests.
var (
	rsaOnce sync.Once
	rsaKey  *rsa.PrivateKey
)

func testKey(t *testing.T) *rsa.PrivateKey {
	t.Helper()
	rsaOnce.Do(func() {
		var err error
		rsaKey, err = rsa.GenerateKey(rand.Reader, 2048)
		if err != nil {
			panic(err)
		}
	})
	return rsaKey
}

// openDB builds a user DB over a standalone KV at dir; closeKV releases
// the KV (also run at test cleanup, where a second close is harmless).
func openDB(t *testing.T, dir string) (db *DB, closeKV func() error) {
	t.Helper()
	kv, err := storage.OpenKV(dir, storage.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	return New(kv), kv.Close
}

func openTestDB(t *testing.T) *DB {
	t.Helper()
	db, _ := openDB(t, t.TempDir())
	return db
}

func TestRegisterAndLookup(t *testing.T) {
	db := openTestDB(t)
	key := testKey(t)
	if err := db.Register("c-services", []byte("hunter2"), &key.PublicKey); err != nil {
		t.Fatal(err)
	}
	if !db.Exists("c-services") {
		t.Fatal("registered identity missing")
	}
	cred, ok := db.Credential("c-services")
	if !ok {
		t.Fatal("credential missing")
	}
	if !bytes.Equal(cred, CredentialKey("c-services", []byte("hunter2"))) {
		t.Fatal("stored credential does not match client derivation")
	}
	pub, err := db.PublicKey("c-services")
	if err != nil {
		t.Fatal(err)
	}
	if pub.N.Cmp(key.PublicKey.N) != 0 || pub.E != key.PublicKey.E {
		t.Fatal("public key round trip mismatch")
	}
}

func TestRegisterValidation(t *testing.T) {
	db := openTestDB(t)
	key := testKey(t)
	if err := db.Register("", []byte("pw"), &key.PublicKey); err == nil {
		t.Error("empty identity accepted")
	}
	if err := db.Register("id", nil, &key.PublicKey); err == nil {
		t.Error("empty password accepted")
	}
	if err := db.Register("id", []byte("pw"), nil); err == nil {
		t.Error("nil public key accepted")
	}
	if err := db.Register("a\x00b", []byte("pw"), &key.PublicKey); err == nil {
		t.Error("NUL identity accepted")
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	db := openTestDB(t)
	key := testKey(t)
	if err := db.Register("rc", []byte("pw1"), &key.PublicKey); err != nil {
		t.Fatal(err)
	}
	if err := db.Register("rc", []byte("pw2"), &key.PublicKey); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// Remove deletes a registration, as an operator would by hand: no
// binary offers it. Removing an absent identity is a no-op.
func (db *DB) Remove(identity string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	kv := db.kv.(storage.KV) // the database's KV interface has no Delete
	if err := kv.Delete(credKeyKey(identity)); err != nil {
		return err
	}
	return kv.Delete(pubKeyKey(identity))
}

func TestRemove(t *testing.T) {
	db := openTestDB(t)
	key := testKey(t)
	if err := db.Register("rc", []byte("pw"), &key.PublicKey); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove("rc"); err != nil {
		t.Fatal(err)
	}
	if db.Exists("rc") {
		t.Fatal("removed identity still exists")
	}
	if _, err := db.PublicKey("rc"); err == nil {
		t.Fatal("removed identity's public key still readable")
	}
	// Re-registration after removal works.
	if err := db.Register("rc", []byte("pw"), &key.PublicKey); err != nil {
		t.Fatal(err)
	}
}

func TestCredentialKeyProperties(t *testing.T) {
	a := CredentialKey("id1", []byte("pw"))
	b := CredentialKey("id2", []byte("pw"))
	if bytes.Equal(a, b) {
		t.Fatal("same password across identities yields same credential")
	}
	c := CredentialKey("id1", []byte("pw2"))
	if bytes.Equal(a, c) {
		t.Fatal("different passwords yield same credential")
	}
	if len(a) != CredentialKeyLen {
		t.Fatalf("credential length %d", len(a))
	}
	// Identity/password boundary must be unambiguous.
	d := CredentialKey("id", []byte("Xpw"))
	e := CredentialKey("idX", []byte("pw"))
	if bytes.Equal(d, e) {
		t.Fatal("credential boundary ambiguity")
	}
}

func TestUserDBDurability(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t)
	db, closeKV := openDB(t, dir)
	if err := db.Register("survivor", []byte("pw"), &key.PublicKey); err != nil {
		t.Fatal(err)
	}
	if err := closeKV(); err != nil {
		t.Fatal(err)
	}
	db2, _ := openDB(t, dir)
	if !db2.Exists("survivor") {
		t.Fatal("registration lost across reopen")
	}
	if _, err := db2.PublicKey("survivor"); err != nil {
		t.Fatal(err)
	}
}
