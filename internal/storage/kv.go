package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

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
	mu  sync.RWMutex
	m   map[string][]byte
	log *wal.Log // nil = volatile
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
	p := &kvPart{m: make(map[string][]byte), log: log}
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
	r, err := decodeKVRecord(payload)
	if err != nil {
		return err
	}
	switch r.op {
	case kvOpPut:
		p.m[r.key] = r.value
	case kvOpDelete:
		delete(p.m, r.key)
	default:
		return fmt.Errorf("storage: unknown kv op %d", r.op)
	}
	p.mutations++
	return nil
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
	return p.mutate(key, append([]byte{}, value...), kvRecord{op: kvOpPut, key: key, value: value}.encode)
}

func (p *kvPart) delete(key string) error {
	return p.mutate(key, nil, kvRecord{op: kvOpDelete, key: key}.encode)
}

// mutate applies a put of val to key, or a delete when val is nil, under
// p.mu and commits it after releasing p.mu: the mutation is visible to
// Get before it is durable, and acknowledged only once it is.
func (p *kvPart) mutate(key string, val []byte, encode func() []byte) error {
	p.mu.Lock()
	//mwslint:ignore lockheld the append runs under p.mu so WAL order matches the order mutations land in p.m; the commit waits for its fsync after p.mu is released
	log, err := p.mutateLocked(key, val, encode)
	p.mu.Unlock()
	if err != nil || log == nil {
		return err
	}
	return log.Commit()
}

// mutateLocked logs the mutation to the part's log, if it has one, and
// applies it to the map, returning the log to commit it on. Deleting an
// absent key is a no-op. Callers hold p.mu.
func (p *kvPart) mutateLocked(key string, val []byte, encode func() []byte) (*wal.Log, error) {
	if _, ok := p.m[key]; val == nil && !ok {
		return nil, nil
	}
	if p.log != nil {
		record := encode()
		obsv.AddStoreWriteBytes(len(record))
		if _, err := p.log.Append(record); err != nil {
			return nil, err
		}
	}
	if val == nil {
		delete(p.m, key)
	} else {
		p.m[key] = val
	}
	p.mutations++
	return p.log, nil
}

// compact rewrites the log so it contains exactly one Put per live key,
// bounding recovery time after long churn. It is the log's own Rewrite,
// so the part keeps its log for life: a Put that appended before
// compaction took p.mu commits on it as usual, and a closed part stays
// closed (wal.ErrClosed).
func (p *kvPart) compact() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log != nil {
		records := make([][]byte, 0, len(p.m))
		for k, v := range p.m {
			records = append(records, kvRecord{op: kvOpPut, key: k, value: v}.encode())
		}
		//mwslint:ignore lockheld compaction rewrites the log with writers excluded, so the rewrite holds exactly p.m; its fsync runs under p.mu by design
		if err := p.log.Rewrite(records); err != nil {
			return err
		}
	}
	p.mutations = uint64(len(p.m))
	return nil
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
