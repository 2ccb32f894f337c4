// Package userdb implements the paper's User Database (UD): the store the
// Gatekeeper consults to authenticate retrieving clients. Per §V.B it
// holds "RC identities and their hashed passwords", plus the RC public
// key the Token Generator wraps tokens with.
//
// Authentication follows the paper's MWS–RC phase: the client proves
// knowledge of its password by encrypting ID ‖ T ‖ N under a key derived
// from the password; the server derives the same key from its stored
// credential. The stored credential is therefore password-equivalent
// (as in the paper); deployments wanting interactive logins should layer
// a PAKE on top — out of scope here as it is out of scope in the paper.
package userdb

import (
	"crypto/rsa"
	"crypto/x509"
	"errors"
	"fmt"
	"strings"
	"sync"

	"mwskit/internal/kdf"
)

// CredentialKeyLen is the byte length of the derived credential key.
const CredentialKeyLen = 32

// CredentialKey derives the shared client/server authentication key from
// an identity and password (the paper's "HashPassword" strengthened with
// identity binding so equal passwords do not collide across clients).
func CredentialKey(identity string, password []byte) []byte {
	return kdf.Stream("mwskit/userdb/cred/v1", append([]byte(identity+"\x00"), password...), CredentialKeyLen)
}

// Record is a registered retrieving client.
type Record struct {
	Identity      string
	CredentialKey []byte         // password-derived shared key
	PublicKey     *rsa.PublicKey // token-wrapping key (the paper's PubK_RC)
}

// KV is what the user database needs of a durable map. storage.KV
// satisfies it; declaring it here keeps the storage engine out of the
// receiving client, which derives its CredentialKey from this package.
type KV interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte) error
	Delete(key string) error
	Keys() []string
}

// DB is the user database.
type DB struct {
	mu sync.RWMutex
	kv KV
}

// New builds the user database over an existing KV (typically
// storage.Provider.KV("users")); the provider keeps lifecycle ownership.
func New(kv KV) *DB { return &DB{kv: kv} }

func credKeyKey(id string) string { return "cred/" + id }
func pubKeyKey(id string) string  { return "pub/" + id }

func validIdentity(id string) error {
	if id == "" || len(id) > 256 || strings.ContainsRune(id, 0) {
		return errors.New("userdb: invalid identity")
	}
	return nil
}

// Register stores a new client credential and public key. Re-registering
// an existing identity is rejected; use Remove first.
func (db *DB) Register(identity string, password []byte, pub *rsa.PublicKey) error {
	if err := validIdentity(identity); err != nil {
		return err
	}
	if len(password) == 0 {
		return errors.New("userdb: empty password")
	}
	if pub == nil {
		return errors.New("userdb: missing public key")
	}
	pubDER, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return fmt.Errorf("userdb: marshal public key: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.kv.Get(credKeyKey(identity)); exists {
		return fmt.Errorf("userdb: identity %q already registered", identity)
	}
	if err := db.kv.Put(credKeyKey(identity), CredentialKey(identity, password)); err != nil {
		return err
	}
	return db.kv.Put(pubKeyKey(identity), pubDER)
}

// Credential returns the stored credential key for the identity.
func (db *DB) Credential(identity string) ([]byte, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.kv.Get(credKeyKey(identity))
}

// PublicKey returns the client's registered RSA public key.
func (db *DB) PublicKey(identity string) (*rsa.PublicKey, error) {
	db.mu.RLock()
	der, ok := db.kv.Get(pubKeyKey(identity))
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("userdb: unknown identity %q", identity)
	}
	pub, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("userdb: corrupt public key for %q: %w", identity, err)
	}
	rsaPub, ok := pub.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("userdb: public key for %q is not RSA", identity)
	}
	return rsaPub, nil
}

// Exists reports whether the identity is registered.
func (db *DB) Exists(identity string) bool {
	_, ok := db.Credential(identity)
	return ok
}

// Remove deletes a registration. Removing an absent identity is a no-op.
func (db *DB) Remove(identity string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.kv.Delete(credKeyKey(identity)); err != nil {
		return err
	}
	return db.kv.Delete(pubKeyKey(identity))
}

// Identities lists registered identities, sorted.
func (db *DB) Identities() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for _, k := range db.kv.Keys() {
		if strings.HasPrefix(k, "cred/") {
			out = append(out, strings.TrimPrefix(k, "cred/"))
		}
	}
	return out
}
