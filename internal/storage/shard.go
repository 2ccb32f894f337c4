package storage

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mwskit/internal/attr"
	"mwskit/internal/obsv"
	"mwskit/internal/wal"
)

// provider is the one Provider implementation: the message database and
// every KV database partitioned across independent shards keyed by
// attribute (resp. key) digest. Deposits toward different shards touch
// disjoint locks and disjoint files, and same-shard deposits share
// fsyncs through the shard's group committer.
//
// Sequence numbers are drawn from one provider-wide counter under the
// shard lock, so they are unique and increasing globally and strictly
// monotonic within each shard (but not dense per shard).
type provider struct {
	dir  string // "" = volatile (memory backend)
	sync SyncPolicy

	nextSeq atomic.Uint64
	shards  []*shard

	mu  sync.Mutex
	kvs map[string]*kv
}

// shard is one message partition: an in-memory index in front of an
// optional WAL and its group committer.
type shard struct {
	mu     sync.RWMutex
	log    *wal.Log   // nil = volatile
	gc     *committer // nil when there is nothing to fsync (no log, or SyncNever)
	msgs   map[uint64]*Message
	byAttr map[attr.Attribute][]uint64 // seqs in append order (strictly increasing)

	// Telemetry: series labeled shard="i" in the provider's registry, so
	// the daemons' /metrics endpoint exposes per-shard load. Resolved
	// once, so the hot path pays a few atomic adds.
	appends, fsyncs, writeBytes *obsv.Counter
	messages                    *obsv.Gauge
}

func newShard(i int, reg *obsv.Registry) *shard {
	l := obsv.L("shard", strconv.Itoa(i))
	return &shard{
		msgs:       make(map[uint64]*Message),
		byAttr:     make(map[attr.Attribute][]uint64),
		appends:    reg.Counter("storage_shard_appends", l),
		fsyncs:     reg.Counter("storage_shard_fsyncs", l),
		writeBytes: reg.Counter("storage_shard_write_bytes", l),
		messages:   reg.Gauge("storage_shard_messages", l),
	}
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

func shardMessagesDir(dir string, i int) string {
	return filepath.Join(shardDir(dir, i), "messages")
}

func shardKVDirs(dir, name string, nshard int) []string {
	dirs := make([]string, nshard)
	for i := range dirs {
		dirs[i] = filepath.Join(shardDir(dir, i), "kv", name)
	}
	return dirs
}

// newProvider opens nshard shards under dir, replaying each shard's WAL
// into its index; with dir "" the shards are volatile.
func newProvider(dir string, sync SyncPolicy, nshard int, reg *obsv.Registry) (*provider, error) {
	p := &provider{dir: dir, sync: sync, kvs: make(map[string]*kv)}
	if reg == nil {
		reg = obsv.NewRegistry() // nobody's /metrics: ShardStats alone reads it
	}
	for i := 0; i < nshard; i++ {
		sh := newShard(i, reg)
		p.shards = append(p.shards, sh)
		if dir != "" {
			top, err := sh.openLog(shardMessagesDir(dir, i), sync)
			if err != nil {
				p.closeShards()
				return nil, fmt.Errorf("storage: shard %d: %w", i, err)
			}
			p.nextSeq.Store(max(p.nextSeq.Load(), top))
		}
		sh.messages.Set(int64(len(sh.msgs)))
	}
	return p, nil
}

// openLog puts a WAL (and, unless sync is SyncNever, a group committer)
// under the shard and replays it into the index, returning the lowest
// sequence number above every replayed one.
func (sh *shard) openLog(dir string, sync SyncPolicy) (top uint64, err error) {
	// The shard WALs are opened SyncNever in every policy: under
	// SyncNever durability is the OS's problem, and otherwise the group
	// committer issues the fsyncs itself so that concurrent appends can
	// share them.
	if sh.log, err = wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever}); err != nil {
		return 0, err
	}
	if sync != SyncNever {
		sh.gc = newCommitter(func() error {
			err := sh.log.Sync()
			if err == nil {
				sh.fsyncs.Inc()
			}
			return err
		})
	}
	err = sh.log.Iterate(func(_ uint64, record []byte) error {
		obsv.AddStoreReadBytes(len(record))
		m, err := decodeShardRecord(record)
		if err != nil {
			return err
		}
		sh.index(m)
		top = max(top, m.Seq+1)
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	return top, nil
}

func (p *provider) closeShards() error {
	var errs []error
	for _, sh := range p.shards {
		if sh.gc != nil {
			sh.gc.close()
		}
		if sh.log != nil {
			errs = append(errs, sh.log.Close())
		}
	}
	return errors.Join(errs...)
}

// index installs a replayed or appended message. Callers hold sh.mu.
func (sh *shard) index(m *Message) {
	sh.msgs[m.Seq] = m
	sh.byAttr[m.Attribute] = append(sh.byAttr[m.Attribute], m.Seq)
}

func (p *provider) shardFor(a attr.Attribute) *shard {
	return p.shards[digestIndex(string(a), len(p.shards))]
}

func (p *provider) Append(ctx context.Context, m *Message) (uint64, error) {
	if m == nil {
		return 0, errors.New("storage: nil message")
	}
	if err := m.Attribute.Validate(); err != nil {
		return 0, err
	}
	cp := *m
	sh := p.shardFor(cp.Attribute)

	sh.mu.Lock()
	// The sequence number is drawn under the shard lock so that the
	// append order within a shard matches sequence order — per-shard
	// monotonicity is what makes per-attribute cursors sound.
	seq := p.nextSeq.Add(1) - 1
	cp.Seq = seq
	written := 0
	if sh.log != nil {
		frame := frameShardRecord(seq, cp.encode())
		written = len(frame)
		obsv.AddStoreWriteBytes(written)
		_, sp := obsv.StartSpan(ctx, "wal.append")
		//mwslint:ignore lockheld the frame must enter the WAL under sh.mu so log order matches sequence order; the group committer fsyncs outside this lock
		_, err := sh.log.Append(frame)
		sp.SetErr(err)
		sp.End()
		if err != nil {
			sh.mu.Unlock()
			return 0, err
		}
	}
	sh.index(&cp)
	sh.appends.Inc()
	sh.writeBytes.Add(uint64(written))
	sh.messages.Add(1)
	sh.mu.Unlock()

	// Durability outside the lock: other appenders to this shard can
	// write their records while we wait for the shared fsync.
	if sh.gc != nil {
		if err := sh.gc.wait(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

func (p *provider) Get(seq uint64) (*Message, bool) {
	for _, sh := range p.shards {
		sh.mu.RLock()
		m, ok := sh.msgs[seq]
		sh.mu.RUnlock()
		if ok {
			return m, true
		}
	}
	return nil, false
}

func (p *provider) ScanAttribute(a attr.Attribute, fromSeq uint64, limit int) []*Message {
	return p.ScanAttributes(attr.Set{a}, fromSeq, limit)
}

func (p *provider) ScanAttributes(set attr.Set, fromSeq uint64, limit int) []*Message {
	// The shards are read one after another, so without a ceiling a
	// result could hold seq s from a late-read shard but miss s' < s that
	// was still in flight on an early-read one — and a reader tailing
	// with cursor = last+1 would step over s' for good. Every sequence
	// number below the counter's value now was drawn under a shard write
	// lock that is held until the message is indexed, so the read locks
	// taken below see it; anything at or above the ceiling waits for the
	// next scan.
	ceiling := p.nextSeq.Load()
	// Group the query attributes by shard so each partition is visited
	// (and locked) once, then merge by sequence number — the global
	// deposit order, since sequences are provider-wide.
	byShard := make(map[*shard]attr.Set)
	for _, a := range set {
		sh := p.shardFor(a)
		byShard[sh] = append(byShard[sh], a)
	}
	var out []*Message
	read := 0
	for sh, attrs := range byShard {
		sh.mu.RLock()
		for _, a := range attrs {
			for _, s := range sh.byAttr[a] {
				if s < fromSeq || s >= ceiling {
					continue
				}
				m := sh.msgs[s]
				out = append(out, m)
				read += len(m.U) + len(m.Ciphertext)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	obsv.AddStoreReadBytes(read)
	return out
}

func (p *provider) Count() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.RLock()
		n += len(sh.msgs)
		sh.mu.RUnlock()
	}
	return n
}

func (p *provider) CountAttribute(a attr.Attribute) int {
	sh := p.shardFor(a)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.byAttr[a])
}

func (p *provider) Attributes() []attr.Attribute {
	var out []attr.Attribute
	for _, sh := range p.shards {
		sh.mu.RLock()
		for a := range sh.byAttr {
			out = append(out, a)
		}
		sh.mu.RUnlock()
	}
	return out
}

func (p *provider) Shards() int { return len(p.shards) }

func (p *provider) ShardOf(a attr.Attribute) int { return digestIndex(string(a), len(p.shards)) }

func (p *provider) ShardStats() []ShardStat {
	out := make([]ShardStat, len(p.shards))
	for i, sh := range p.shards {
		out[i] = ShardStat{
			Shard:      i,
			Messages:   int(sh.messages.Value()),
			Appends:    sh.appends.Value(),
			Fsyncs:     sh.fsyncs.Value(),
			WriteBytes: sh.writeBytes.Value(),
		}
	}
	return out
}

func (p *provider) KV(name string) (KV, error) {
	if name == "" || name != filepath.Base(name) || name == "." || name == ".." {
		return nil, fmt.Errorf("storage: invalid KV name %q", name)
	}
	if name == "messages" || name == metaName || strings.HasPrefix(name, "shard-") {
		return nil, fmt.Errorf("storage: KV name %q is reserved", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if k, ok := p.kvs[name]; ok {
		return k, nil
	}
	var dirs []string
	if p.dir != "" {
		dirs = shardKVDirs(p.dir, name, len(p.shards))
	}
	//mwslint:ignore lockheld first open of a named kv must be exclusive so two callers cannot double-open one partition WAL; runs once per name
	k, err := openKV(dirs, p.sync)
	if err != nil {
		return nil, fmt.Errorf("storage: kv %q: %w", name, err)
	}
	p.kvs[name] = k
	return k, nil
}

// takeKVs snapshots the open KV handles under the lock, so that callers
// fsync (compact, close) outside it: holding p.mu across a disk flush
// would stall a concurrent KV() open for its duration. With drop set the
// handles are also forgotten.
func (p *provider) takeKVs(drop bool) []*kv {
	p.mu.Lock()
	defer p.mu.Unlock()
	kvs := make([]*kv, 0, len(p.kvs))
	for _, k := range p.kvs {
		kvs = append(kvs, k)
	}
	if drop {
		p.kvs = make(map[string]*kv)
	}
	return kvs
}

func (p *provider) Compact(minMutations uint64) (int, error) {
	n := 0
	for _, k := range p.takeKVs(false) {
		did, err := k.compact(minMutations)
		n += did
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func (p *provider) Close() error {
	errs := []error{p.closeShards()}
	for _, k := range p.takeKVs(true) {
		errs = append(errs, k.Close())
	}
	return errors.Join(errs...)
}
