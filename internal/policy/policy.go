// Package policy implements the paper's Policy Database (PD): the
// identity ↔ attribute mapping of Table 1 that the Message Management
// System consults to decide which deposited messages a retrieving client
// may see, plus the revocation operations of requirement §III(iii).
//
// Following Table 1, each *grant* (identity, attribute) gets its own
// opaque Attribute ID — note how IDRC1/A1 is AID 1 while IDRC2/A1 is
// AID 3 in the paper's table. Per-grant AIDs mean a client can never
// correlate its attribute handles with another client's, and the MWS can
// revoke one client's access to an attribute without touching anyone
// else's handles.
package policy

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mwskit/internal/attr"
	"mwskit/internal/storage"
)

// DB is the policy database. All methods are safe for concurrent use;
// mutations are durable through the underlying KV store.
type DB struct {
	mu sync.RWMutex
	kv storage.KV

	byIdentity map[string]map[attr.Attribute]attr.ID
	byAID      map[attr.ID]attr.Binding
	nextAID    uint64
}

const (
	grantPrefix = "grant/"
	nextAIDKey  = "meta/next-aid"
)

// New builds the policy database over an existing KV (typically
// storage.Provider.KV("policy")); the caller's provider keeps ownership
// of the store's lifecycle.
func New(kv storage.KV) (*DB, error) {
	db := &DB{
		kv:         kv,
		byIdentity: make(map[string]map[attr.Attribute]attr.ID),
		byAID:      make(map[attr.ID]attr.Binding),
		nextAID:    1, // Table 1 numbers AIDs from 1
	}
	var loadErr error
	kv.Range(func(key string, value []byte) bool {
		switch {
		case key == nextAIDKey:
			n, err := strconv.ParseUint(string(value), 10, 64)
			if err != nil {
				loadErr = fmt.Errorf("policy: corrupt %s: %w", nextAIDKey, err)
				return false
			}
			db.nextAID = n
		case strings.HasPrefix(key, grantPrefix):
			aid, err := strconv.ParseUint(strings.TrimPrefix(key, grantPrefix), 10, 64)
			if err != nil {
				loadErr = fmt.Errorf("policy: corrupt grant key %q: %w", key, err)
				return false
			}
			identity, attribute, err := decodeGrant(value)
			if err != nil {
				loadErr = err
				return false
			}
			db.indexGrant(attr.Binding{Identity: identity, Attribute: attribute, AID: attr.ID(aid)})
		}
		return true
	})
	if loadErr != nil {
		return nil, loadErr
	}
	return db, nil
}

func encodeGrant(identity string, a attr.Attribute) []byte {
	// identity may not contain '\x00'; enforced by Grant.
	return []byte(identity + "\x00" + string(a))
}

func decodeGrant(b []byte) (identity string, a attr.Attribute, err error) {
	parts := strings.SplitN(string(b), "\x00", 2)
	if len(parts) != 2 {
		return "", "", errors.New("policy: corrupt grant record")
	}
	return parts[0], attr.Attribute(parts[1]), nil
}

func (db *DB) indexGrant(b attr.Binding) {
	m := db.byIdentity[b.Identity]
	if m == nil {
		m = make(map[attr.Attribute]attr.ID)
		db.byIdentity[b.Identity] = m
	}
	m[b.Attribute] = b.AID
	db.byAID[b.AID] = b
}

// Grant adds the (identity, attribute) row and returns its fresh AID.
// Granting an attribute the identity already holds returns the existing
// AID (idempotent).
func (db *DB) Grant(identity string, a attr.Attribute) (attr.ID, error) {
	if identity == "" || strings.ContainsRune(identity, 0) {
		return 0, errors.New("policy: invalid identity")
	}
	if err := a.Validate(); err != nil {
		return 0, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if aid, ok := db.byIdentity[identity][a]; ok {
		return aid, nil
	}
	aid := attr.ID(db.nextAID)
	db.nextAID++
	if err := db.kv.Put(nextAIDKey, []byte(strconv.FormatUint(db.nextAID, 10))); err != nil {
		return 0, err
	}
	key := grantPrefix + strconv.FormatUint(uint64(aid), 10)
	if err := db.kv.Put(key, encodeGrant(identity, a)); err != nil {
		return 0, err
	}
	db.indexGrant(attr.Binding{Identity: identity, Attribute: a, AID: aid})
	return aid, nil
}

// Revoke removes the identity's access to the attribute. Revoking an
// absent grant is a no-op. After revocation the identity can no longer
// retrieve messages for the attribute, and — because new messages carry
// fresh nonces — none of its previously issued private keys open any
// future message (§III iii).
func (db *DB) Revoke(identity string, a attr.Attribute) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	aid, ok := db.byIdentity[identity][a]
	if !ok {
		return nil
	}
	return db.revokeLocked(identity, a, aid)
}

func (db *DB) revokeLocked(identity string, a attr.Attribute, aid attr.ID) error {
	key := grantPrefix + strconv.FormatUint(uint64(aid), 10)
	if err := db.kv.Delete(key); err != nil {
		return err
	}
	delete(db.byIdentity[identity], a)
	if len(db.byIdentity[identity]) == 0 {
		delete(db.byIdentity, identity)
	}
	delete(db.byAID, aid)
	return nil
}

// RevokeAll removes every grant the identity holds (e.g. the paper's
// "C-Services discontinues its service" scenario).
func (db *DB) RevokeAll(identity string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	grants := db.byIdentity[identity]
	for a, aid := range grants {
		if err := db.revokeLocked(identity, a, aid); err != nil {
			return err
		}
	}
	return nil
}

// HasAttribute reports whether the identity currently holds the attribute.
func (db *DB) HasAttribute(identity string, a attr.Attribute) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.byIdentity[identity][a]
	return ok
}

// BindingsFor returns the identity's current grants sorted by AID — the
// rows of Table 1 restricted to one identity.
func (db *DB) BindingsFor(identity string) []attr.Binding {
	db.mu.RLock()
	defer db.mu.RUnlock()
	grants := db.byIdentity[identity]
	out := make([]attr.Binding, 0, len(grants))
	for a, aid := range grants {
		out = append(out, attr.Binding{Identity: identity, Attribute: a, AID: aid})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AID < out[j].AID })
	return out
}

// AttributesFor returns just the attribute set of the identity's grants.
func (db *DB) AttributesFor(identity string) attr.Set {
	bindings := db.BindingsFor(identity)
	out := make(attr.Set, len(bindings))
	for i, b := range bindings {
		out[i] = b.Attribute
	}
	return out
}

// ByAID resolves an attribute ID back to its grant — the substitution the
// PKG performs when a client presents AID ‖ Nonce (§V.D, RC–PKG phase).
func (db *DB) ByAID(aid attr.ID) (attr.Binding, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	b, ok := db.byAID[aid]
	return b, ok
}

// Table returns every grant sorted by AID: the full Table 1.
func (db *DB) Table() []attr.Binding {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]attr.Binding, 0, len(db.byAID))
	for _, b := range db.byAID {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AID < out[j].AID })
	return out
}

// Identities returns the identities holding at least one grant, sorted.
func (db *DB) Identities() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.byIdentity))
	for id := range db.byIdentity {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// FormatTable renders the grants as the paper's Table 1 layout.
func FormatTable(rows []attr.Binding) string {
	var b strings.Builder
	b.WriteString("Identity\tAttribute\tAttribute ID\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%s\t%d\n", r.Identity, r.Attribute, r.AID)
	}
	return b.String()
}
