package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"mwskit/internal/codec"
	"mwskit/internal/obsv"
	"mwskit/internal/wal"
)

// digestIndex maps a routing key (an attribute, a KV key) to one of n
// partitions. The digest is stable across restarts and platforms, so a
// key always lands in the same partition.
func digestIndex(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := sha256.Sum256([]byte(key))
	return int(binary.BigEndian.Uint64(h[:8]) % uint64(n))
}

// kv is the one KV implementation: a string-keyed database striped over
// one or more parts by key digest, so writes toward different parts do
// not serialize on one log. The provider stripes each named database
// across its shards (shard-NNN/kv/<name>); OpenKV is the one-part case.
type kv struct {
	parts []*kvPart
}

// kvPart is one stripe: an in-memory map fronted by an optional
// write-ahead log. With a log, every mutation is logged before it is
// applied and open replays the log to rebuild the map, so the part
// survives crashes with at most the in-flight operation lost. Without
// one (the memory backend) it is just the map.
type kvPart struct {
	mu   sync.RWMutex
	m    map[string][]byte
	log  *wal.Log // nil = volatile
	dir  string
	sync SyncPolicy
	// mutations counts logged operations since the last compaction, used
	// by the compaction heuristic.
	mutations uint64
}

// openKV opens a kv with one part per directory; no directories at all
// means a single volatile part.
func openKV(dirs []string, sync SyncPolicy) (*kv, error) {
	if len(dirs) == 0 {
		return &kv{parts: []*kvPart{{m: make(map[string][]byte)}}}, nil
	}
	k := &kv{}
	for _, dir := range dirs {
		part, err := openKVPart(dir, sync)
		if err != nil {
			k.Close()
			return nil, err
		}
		k.parts = append(k.parts, part)
	}
	return k, nil
}

func openKVPart(dir string, sync SyncPolicy) (*kvPart, error) {
	log, err := wal.Open(wal.Options{Dir: dir, Sync: sync})
	if err != nil {
		return nil, err
	}
	p := &kvPart{m: make(map[string][]byte), log: log, dir: dir, sync: sync}
	err = log.Iterate(func(_ uint64, payload []byte) error {
		obsv.AddStoreReadBytes(len(payload))
		return p.applyRecord(payload)
	})
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("storage: kv replay: %w", err)
	}
	return p, nil
}

func (p *kvPart) applyRecord(payload []byte) error {
	d := codec.NewDecoder(payload)
	op, err := d.Uint8()
	if err != nil {
		return err
	}
	key, err := d.Str()
	if err != nil {
		return err
	}
	switch op {
	case kvOpPut:
		val, err := d.Blob()
		if err != nil {
			return err
		}
		p.m[key] = val
	case kvOpDelete:
		delete(p.m, key)
	default:
		return fmt.Errorf("storage: unknown kv op %d", op)
	}
	p.mutations++
	return d.Done()
}

func (p *kvPart) get(key string) ([]byte, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	v, ok := p.m[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

func (p *kvPart) put(key string, value []byte) error {
	val := make([]byte, len(value))
	copy(val, value)
	var record []byte
	if p.log != nil {
		record = encodeKVPut(key, value)
		obsv.AddStoreWriteBytes(len(record))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log != nil {
		//mwslint:ignore lockheld the durable append must run under p.mu so WAL order matches the order mutations land in p.m; ack implies on stable storage
		if _, err := p.log.Append(record); err != nil {
			return err
		}
	}
	p.m[key] = val
	p.mutations++
	return nil
}

func (p *kvPart) delete(key string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.m[key]; !ok {
		return nil
	}
	if p.log != nil {
		//mwslint:ignore lockheld the durable append must run under p.mu so WAL order matches the order mutations land in p.m; ack implies on stable storage
		if _, err := p.log.Append(encodeKVDelete(key)); err != nil {
			return err
		}
	}
	delete(p.m, key)
	p.mutations++
	return nil
}

// compact rewrites the log so it contains exactly one Put per live key,
// bounding recovery time after long churn. The part remains usable
// afterwards; on any error the original data is untouched.
func (p *kvPart) compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log == nil {
		p.mutations = uint64(len(p.m))
		return nil
	}
	tmpDir := p.dir + ".compact"
	//mwslint:ignore lockheld compaction rewrites the log with writers excluded; the whole rewrite-and-swap runs under p.mu by design
	if err := writeCompacted(tmpDir, p.m); err != nil {
		os.RemoveAll(tmpDir)
		return err
	}
	//mwslint:ignore lockheld the old log must be closed with writers excluded before the directory swap
	if err := p.log.Close(); err != nil {
		return err
	}
	swapErr := replaceDir(p.dir, tmpDir)
	// Reopen whichever log now sits at p.dir — the rewritten one, or the
	// original if the swap failed — under the policy the part was opened
	// with.
	log, err := wal.Open(wal.Options{Dir: p.dir, Sync: p.sync})
	if err != nil {
		return errors.Join(swapErr, err)
	}
	p.log = log
	if swapErr == nil {
		p.mutations = uint64(len(p.m))
	}
	return swapErr
}

// writeCompacted writes one Put per entry of m into a fresh log at dir
// and seals it.
func writeCompacted(dir string, m map[string][]byte) error {
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("storage: compact cleanup: %w", err)
	}
	log, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	for k, v := range m {
		if _, err := log.Append(encodeKVPut(k, v)); err != nil {
			log.Close()
			return err
		}
	}
	return log.Close()
}

// replaceDir moves src over dst by way of dst.old, putting dst back if
// src cannot take its place.
func replaceDir(dst, src string) error {
	old := dst + ".old"
	if err := os.RemoveAll(old); err != nil {
		return err
	}
	if err := os.Rename(dst, old); err != nil {
		return fmt.Errorf("storage: compact swap: %w", err)
	}
	if err := os.Rename(src, dst); err != nil {
		return errors.Join(fmt.Errorf("storage: compact swap: %w", err), os.Rename(old, dst))
	}
	return os.RemoveAll(old)
}

func (p *kvPart) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log == nil {
		return nil
	}
	//mwslint:ignore lockheld close must exclude in-flight writers; the final fsync happens under p.mu by design
	return p.log.Close()
}

func (k *kv) part(key string) *kvPart { return k.parts[digestIndex(key, len(k.parts))] }

// Get returns a copy of the value for key.
func (k *kv) Get(key string) ([]byte, bool) { return k.part(key).get(key) }

// Put durably stores key = value (a copy of it).
func (k *kv) Put(key string, value []byte) error { return k.part(key).put(key, value) }

// Delete durably removes key. Deleting an absent key is a no-op.
func (k *kv) Delete(key string) error { return k.part(key).delete(key) }

// Len returns the number of live keys.
func (k *kv) Len() int {
	n := 0
	for _, p := range k.parts {
		p.mu.RLock()
		n += len(p.m)
		p.mu.RUnlock()
	}
	return n
}

// Keys returns the live keys in sorted order.
func (k *kv) Keys() []string {
	var out []string
	k.Range(func(key string, _ []byte) bool {
		out = append(out, key)
		return true
	})
	sort.Strings(out)
	return out
}

// Range calls fn for each key/value pair (in unspecified order) until fn
// returns false. The value slice must not be retained.
func (k *kv) Range(fn func(key string, value []byte) bool) {
	for _, p := range k.parts {
		if !p.rangeWhile(fn) {
			return
		}
	}
}

// rangeWhile reports whether fn asked for more after the last pair.
func (p *kvPart) rangeWhile(fn func(key string, value []byte) bool) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for key, v := range p.m {
		if !fn(key, v) {
			return false
		}
	}
	return true
}

// Mutations reports logged operations since the last compaction.
func (k *kv) Mutations() uint64 {
	var n uint64
	for _, p := range k.parts {
		p.mu.RLock()
		n += p.mutations
		p.mu.RUnlock()
	}
	return n
}

// Compact compacts every part unconditionally.
func (k *kv) Compact() error {
	_, err := k.compact(0)
	return err
}

// compact applies the compaction heuristic part by part (each part has
// its own log to shrink): a part is rewritten when its mutation count
// exceeds both minMutations and twice its live keys, or unconditionally
// when minMutations is 0. It returns how many parts were compacted.
func (k *kv) compact(minMutations uint64) (int, error) {
	n := 0
	for _, p := range k.parts {
		p.mu.RLock()
		muts, live := p.mutations, uint64(len(p.m))
		p.mu.RUnlock()
		if minMutations > 0 && (muts < minMutations || muts <= 2*live) {
			continue
		}
		if err := p.compact(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Close releases every part's log.
func (k *kv) Close() error {
	var errs []error
	for _, p := range k.parts {
		errs = append(errs, p.close())
	}
	return errors.Join(errs...)
}
