// Package storage is the persistence layer under the Message Warehousing
// Service — the only package above internal/wal: the paper's Message
// Database (attribute-indexed message records) and the KV databases
// backing the policy, user, and device-key stores. The paper's prototype
// used flat files; §VIII asks for a real database layer, which this
// package supplies.
//
// There is one engine. A provider is N shards keyed by the recipient
// attribute's digest, each an in-memory index in front of its own WAL
// with a group-commit fsync loop — deposits for different utilities
// never contend, and same-shard deposits amortize durability cost — and
// every named KV database is striped across the same shards by key
// digest. One shard is the unpartitioned store; the memory backend is
// the same engine with no logs under it, for tests and simulation.
package storage

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mwskit/internal/attr"
	"mwskit/internal/obsv"
	"mwskit/internal/wal"
)

// SyncPolicy re-exports the WAL durability policy so provider consumers
// need not import internal/wal.
type SyncPolicy = wal.SyncPolicy

// Re-exported durability policies.
const (
	SyncAlways = wal.SyncAlways
	SyncNever  = wal.SyncNever
)

// Backend names.
const (
	BackendSharded = "sharded"
	BackendMemory  = "memory"
)

// KV is a durable string-keyed database. The provider owns the lifecycle
// of every KV it hands out; callers must not retain value slices passed
// to Range.
type KV interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte) error
	Delete(key string) error
	Len() int
	Keys() []string
	Range(fn func(key string, value []byte) bool)
	// Mutations reports logged operations since the last compaction — the
	// compaction heuristic (live keys ≪ mutations ⇒ compact).
	Mutations() uint64
	// Compact rewrites the log to one Put per live key.
	Compact() error
}

// CloserKV is a KV whose lifecycle the caller owns — what OpenKV returns
// for single-database consumers (the PKG's master-key store, the
// deployment's shared-key store).
type CloserKV interface {
	KV
	Close() error
}

// Provider is the message database plus the named KV databases. All
// methods are safe for concurrent use. Message sequence numbers are
// unique and increasing across the provider, and monotonic (but not
// dense) within each shard.
type Provider interface {
	// Append durably stores a message and returns its assigned sequence
	// number. The caller's Message.Seq is ignored. The append is durable
	// to the configured sync policy before Append returns.
	Append(ctx context.Context, m *Message) (uint64, error)
	// Get returns the message with the given sequence number.
	Get(seq uint64) (*Message, bool)
	// ScanAttribute returns messages carrying the attribute with
	// Seq ≥ fromSeq (inclusive cursor), oldest first, up to limit
	// (0 = unlimited).
	ScanAttribute(a attr.Attribute, fromSeq uint64, limit int) []*Message
	// ScanAttributes merges ScanAttribute across a set, ordered by
	// sequence number. A result is a gap-free prefix of what the set
	// will ever hold from fromSeq on: no later scan returns a lower
	// sequence number, so last+1 is a sound tail cursor.
	ScanAttributes(set attr.Set, fromSeq uint64, limit int) []*Message
	// Count returns the total number of stored messages.
	Count() int
	// CountAttribute returns the number of messages for one attribute.
	CountAttribute(a attr.Attribute) int
	// Attributes returns the distinct attributes present.
	Attributes() []attr.Attribute
	// KV opens (or returns) the named KV database. Names are single path
	// elements ("devices", "policy", "users").
	KV(name string) (KV, error)
	// Compact compacts every part of every open KV database whose
	// mutation count exceeds both minMutations and twice its live key
	// count, returning how many were compacted. minMutations 0 compacts
	// unconditionally.
	Compact(minMutations uint64) (int, error)
	// Shards reports the partition count (1 for memory).
	Shards() int
	// ShardOf reports which partition an attribute's messages land in.
	ShardOf(a attr.Attribute) int
	// ShardStats samples per-shard telemetry.
	ShardStats() []ShardStat
	// Close flushes and releases every underlying store.
	Close() error
}

// ShardStat is a point-in-time sample of one partition. The counters are
// the partition's Options.Metrics series when a registry was given, so
// they run for as long as that registry has: compare two samples.
type ShardStat struct {
	Shard      int
	Messages   int
	Appends    uint64
	Fsyncs     uint64
	WriteBytes uint64
}

// Options selects and tunes a backend; the zero value means the durable
// backend with the default shard count.
type Options struct {
	// Backend is BackendSharded (also what "" means) or BackendMemory.
	Backend string
	// Shards is the partition count (default 8; 1 is the unpartitioned
	// store). A directory pins its shard count at creation; reopening
	// with a different non-zero value is an error.
	Shards int
	// Metrics, when set, receives per-shard labeled series
	// (storage_shard_appends, storage_shard_fsyncs,
	// storage_shard_write_bytes, storage_shard_messages).
	Metrics *obsv.Registry
}

// Config is everything Open needs.
type Config struct {
	// Dir is the root data directory (ignored by the memory backend).
	Dir string
	// Sync selects durability (default SyncAlways).
	Sync SyncPolicy
	Options
}

const (
	// metaName is the marker file under Dir that pins the layout.
	metaName = "storage.json"
	// defaultShards is the default partition count.
	defaultShards = 8
)

// meta is the persisted shape of the marker file.
type meta struct {
	Version int    `json:"version"`
	Backend string `json:"backend"`
	Shards  int    `json:"shards"`
}

// Open opens (or creates) a provider rooted at cfg.Dir.
//
// On-disk layout under Dir:
//
//	storage.json                   marker: shard count, fixed at creation
//	shard-000/messages/*.wal       message WAL for partition 0
//	shard-000/kv/<name>/*.wal      partition 0 of KV database <name>
//	...
//
// That is the only layout: a directory holding WAL segments in any other
// first-level subdirectory is refused with ErrUnknownLayout, untouched.
func Open(cfg Config) (Provider, error) {
	// The shard logs are always opened SyncNever (the group committer
	// owns their fsyncs), so wal.Open's own check never sees cfg.Sync.
	if cfg.Sync != SyncAlways && cfg.Sync != SyncNever {
		return nil, fmt.Errorf("storage: undefined sync policy %d", cfg.Sync)
	}
	shards := 1
	switch cfg.Backend {
	case BackendMemory:
		cfg.Dir = "" // volatile: the engine with no logs under it
	case "", BackendSharded:
		var err error
		if shards, err = prepareDir(cfg.Dir, cfg.Shards); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("storage: unknown backend %q (want %q or %q)", cfg.Backend, BackendSharded, BackendMemory)
	}
	p, err := newProvider(cfg.Dir, cfg.Sync, shards, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ErrUnknownLayout is Open's refusal of a directory that keeps WAL
// segments outside its shard-NNN partitions: data some other layout put
// there, which this engine would neither serve nor account for.
var ErrUnknownLayout = errors.New("storage: unknown data directory layout")

// checkLayout returns ErrUnknownLayout naming the first subdirectory of
// dir, other than a shard, that holds WAL segments. Stray files and
// directories without segments are not the engine's business.
func checkLayout(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: scan layout: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		if segs, _ := filepath.Glob(filepath.Join(sub, "*.wal")); len(segs) > 0 {
			return fmt.Errorf("%w: %s holds WAL segments outside shard-NNN/", ErrUnknownLayout, sub)
		}
	}
	return nil
}

// prepareDir settles dir's shard count — pinned by the marker if there
// is one, else wanted (0 = default) — refuses a layout it does not know,
// and writes the marker if it was missing.
func prepareDir(dir string, wanted int) (int, error) {
	if dir == "" {
		return 0, errors.New("storage: Dir is required")
	}
	m, err := readMeta(dir)
	if err != nil {
		return 0, err
	}
	shards := wanted
	if m != nil {
		if shards != 0 && shards != m.Shards {
			return 0, fmt.Errorf("storage: %s has %d shards (fixed at creation); cannot reopen with %d", dir, m.Shards, shards)
		}
		shards = m.Shards
	}
	if shards == 0 {
		shards = defaultShards
	}
	if shards < 1 || shards > 1024 {
		return 0, fmt.Errorf("storage: shard count %d out of range [1,1024]", shards)
	}
	if err := checkLayout(dir); err != nil {
		return 0, err
	}
	if m == nil {
		if err := writeMeta(dir, meta{Version: 1, Backend: BackendSharded, Shards: shards}); err != nil {
			return 0, err
		}
	}
	return shards, nil
}

// OpenKV opens a single standalone KV database at dir — the entry point
// for consumers that need one durable map and no message database (the
// PKG's master-key store, the deployment's shared-key store).
func OpenKV(dir string, sync SyncPolicy) (CloserKV, error) {
	k, err := openKV([]string{dir}, sync)
	if err != nil {
		return nil, err
	}
	return k, nil
}

// readMeta loads the marker file, nil when absent.
func readMeta(dir string) (*meta, error) {
	raw, err := os.ReadFile(filepath.Join(dir, metaName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read meta: %w", err)
	}
	var m meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("storage: corrupt %s: %w", metaName, err)
	}
	if m.Backend != BackendSharded || m.Shards < 1 {
		return nil, fmt.Errorf("storage: corrupt %s: backend %q, %d shards", metaName, m.Backend, m.Shards)
	}
	return &m, nil
}

// writeMeta persists the marker file.
func writeMeta(dir string, m meta) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return fmt.Errorf("storage: write meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaName), append(raw, '\n'), 0o600); err != nil {
		return fmt.Errorf("storage: write meta: %w", err)
	}
	return nil
}
