// Package macauth implements the smart-device authentication path of the
// paper (§V.B, Smart Device Authenticator): every deposited message
// carries MAC = H_K(SecK_SD-MWS, rP ‖ C ‖ Nonce ‖ ID_SD ‖ T), computed
// with a symmetric key shared at device registration. The SDA recomputes
// the MAC, verifies freshness of the timestamp, and rejects replays.
//
// The paper's H_K is instantiated as HMAC-SHA256; per-device keys live in
// a KV-backed key-management service, and a replay guard remembers
// recently accepted MACs within the freshness window.
package macauth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// KeyLen is the byte length of device MAC keys.
const KeyLen = 32

// Compute returns HMAC-SHA256 over the length-delimited parts. Parts are
// length-prefixed so field boundaries can never be confused (e.g. a
// ciphertext ending in the device ID's bytes).
func Compute(key []byte, parts ...[]byte) []byte {
	m := hmac.New(sha256.New, key)
	var lenBuf [4]byte
	for _, p := range parts {
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(p)))
		m.Write(lenBuf[:])
		m.Write(p)
	}
	return m.Sum(nil)
}

// Verify reports whether mac authenticates the parts under key, in
// constant time.
func Verify(key, mac []byte, parts ...[]byte) bool {
	return hmac.Equal(mac, Compute(key, parts...))
}

// KV is what the key service needs of a durable map. storage.KV satisfies
// it; declaring it here keeps the storage engine out of every binary that
// only computes MACs (the smart device).
type KV interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte) error
	Delete(key string) error
}

// KeyService is the key-management component the SDA consults (§V.B):
// a durable map from device identity to its shared MAC key.
type KeyService struct {
	mu sync.RWMutex
	kv KV
}

// NewKeyService builds the key service over an existing KV (typically
// storage.Provider.KV("devices")); the provider keeps lifecycle
// ownership.
func NewKeyService(kv KV) *KeyService { return &KeyService{kv: kv} }

// Register draws a fresh key for the device and stores it, returning the
// key for delivery to the device over the registration channel (the
// paper leaves the initial exchange out of scope; so do we).
func (ks *KeyService) Register(deviceID string, rng io.Reader) ([]byte, error) {
	if deviceID == "" {
		return nil, errors.New("macauth: empty device ID")
	}
	key := make([]byte, KeyLen)
	if _, err := io.ReadFull(rng, key); err != nil {
		return nil, fmt.Errorf("macauth: keygen: %w", err)
	}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if _, exists := ks.kv.Get(deviceID); exists {
		return nil, fmt.Errorf("macauth: device %q already registered", deviceID)
	}
	if err := ks.kv.Put(deviceID, key); err != nil {
		return nil, err
	}
	return key, nil
}

// Key returns the shared key for a registered device.
func (ks *KeyService) Key(deviceID string) ([]byte, bool) {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return ks.kv.Get(deviceID)
}

// Revoke removes a device's key; subsequent deposits from it fail
// authentication.
func (ks *KeyService) Revoke(deviceID string) error {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.kv.Delete(deviceID)
}

// replaySet holds one window's accepted MACs as SHA-256 digests cut to 128
// bits: one entry size for device HMACs and sealed RC authenticators alike.
type replaySet map[[16]byte]struct{}

// ReplayGuard rejects MACs it has already accepted within the freshness
// window. A timestamp passes freshness for 2 × window of clock time, so
// entries must live that long: they sit in three generation sets, one per
// window, and expire by dropping the oldest set whole. An entry lives 2–3
// windows, a Check costs three map probes at any accept rate, memory is
// accept rate × 3 windows, and nothing survives a restart (DESIGN.md §11).
type ReplayGuard struct {
	window time.Duration

	mu    sync.Mutex
	start time.Time    // when gens[0]'s window began
	gens  [3]replaySet // gens[0] is current; older sets may be nil
}

// NewReplayGuard builds a guard with the given freshness window.
func NewReplayGuard(window time.Duration) *ReplayGuard {
	return &ReplayGuard{window: window}
}

// Errors returned by Check.
var (
	ErrStale  = errors.New("macauth: timestamp outside freshness window")
	ErrReplay = errors.New("macauth: message replayed")
)

// Check validates freshness of ts against now and records the MAC,
// rejecting exact replays. It must be called only after MAC verification
// succeeds (a forged MAC must not pollute the cache).
func (g *ReplayGuard) Check(mac []byte, ts, now time.Time) error {
	if d := now.Sub(ts); d > g.window || d < -g.window {
		return ErrStale
	}
	sum := sha256.Sum256(mac)
	key := [16]byte(sum[:16])
	g.mu.Lock()
	defer g.mu.Unlock()
	// Advance to now's window. A clock that leapt three windows or more (a
	// first Check included) outlived every entry, so all sets go at once; one
	// that stepped backwards rotates nothing, which only keeps entries longer.
	if age := now.Sub(g.start); age >= 3*g.window {
		g.gens, g.start = [3]replaySet{{}}, now
	} else {
		for ; age >= g.window; age -= g.window {
			g.gens = [3]replaySet{{}, g.gens[0], g.gens[1]}
			g.start = g.start.Add(g.window)
		}
	}
	for _, gen := range g.gens {
		if _, dup := gen[key]; dup {
			return ErrReplay
		}
	}
	g.gens[0][key] = struct{}{}
	return nil
}

// Len reports the number of cached MACs (for tests and metrics).
func (g *ReplayGuard) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.gens[0]) + len(g.gens[1]) + len(g.gens[2])
}
