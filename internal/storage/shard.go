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
// fsyncs through their log's group commit.
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

// shard is one message partition: an in-memory index (byAttr alone,
// DESIGN.md §11) in front of an optional WAL.
type shard struct {
	mu     sync.RWMutex
	log    *wal.Log                      // nil = volatile
	byAttr map[attr.Attribute][]*Message // append order, seqs strictly increasing; append-only

	// Telemetry: series labeled shard="i" in the provider's registry, so
	// the daemons' /metrics endpoint exposes per-shard load. Resolved
	// once, so the hot path pays a few atomic adds.
	appends, writeBytes *obsv.Counter
	messages            *obsv.Gauge
}

// register resolves the shard's series once its log (if any) is open.
func (sh *shard) register(i int, reg *obsv.Registry) {
	l := obsv.L("shard", strconv.Itoa(i))
	sh.appends = reg.Counter("storage_shard_appends", l)
	reg.CounterFunc("storage_shard_fsyncs", sh.fsyncs, l) // the log's own sync count
	sh.writeBytes = reg.Counter("storage_shard_write_bytes", l)
	sh.messages = reg.Gauge("storage_shard_messages", l)
	n := 0
	for _, ms := range sh.byAttr {
		n += len(ms)
	}
	sh.messages.Set(int64(n))
}

func (sh *shard) fsyncs() int64 {
	if sh.log == nil {
		return 0
	}
	return int64(sh.log.Syncs())
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
		sh := &shard{byAttr: make(map[attr.Attribute][]*Message)}
		p.shards = append(p.shards, sh)
		if dir != "" {
			top, err := sh.openLog(shardMessagesDir(dir, i), sync)
			if err != nil {
				p.closeShards()
				return nil, fmt.Errorf("storage: shard %d: %w", i, err)
			}
			p.nextSeq.Store(max(p.nextSeq.Load(), top))
		}
		sh.register(i, reg)
	}
	return p, nil
}

// openLog puts a WAL under the shard and replays it into the index,
// returning the lowest sequence number above every replayed one.
func (sh *shard) openLog(dir string, sync SyncPolicy) (top uint64, err error) {
	if sh.log, err = wal.Open(wal.Options{Dir: dir, Sync: sync}); err != nil {
		return 0, err
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
		if sh.log != nil {
			errs = append(errs, sh.log.Close())
		}
	}
	return errors.Join(errs...)
}

// index installs a replayed or appended message. Callers hold sh.mu.
func (sh *shard) index(m *Message) {
	sh.byAttr[m.Attribute] = append(sh.byAttr[m.Attribute], m)
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
	log := sh.log
	if log != nil {
		frame := frameShardRecord(seq, cp.encode())
		written = len(frame)
		obsv.AddStoreWriteBytes(written)
		_, sp := obsv.StartSpan(ctx, "wal.append")
		//mwslint:ignore lockheld the frame must enter the WAL under sh.mu so log order matches sequence order; the commit waits for its fsync outside this lock
		_, err := log.Append(frame)
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
	if log != nil {
		if err := log.Commit(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

func (p *provider) ScanAttributes(set attr.Set, fromSeq uint64, limit int) []*Message {
	// Lists are read one after another, so without a ceiling a result
	// could hold seq s from a late-read shard but miss s' < s still in
	// flight on an early-read one, and a reader tailing with cursor =
	// last+1 would step over s' for good. Every seq below the counter's
	// value now was drawn under a shard write lock held until the message
	// is indexed, so the read locks below see it; the rest waits for the
	// next scan. Each list is append-only with increasing seqs, so its
	// slice stays valid past the lock: binary search cuts it to [fromSeq,
	// ceiling), and a merge by seq (the global deposit order) stops at limit.
	ceiling := p.nextSeq.Load()
	runs := make([][]*Message, 0, len(set))
	for _, a := range set {
		sh := p.shardFor(a)
		sh.mu.RLock()
		l := sh.byAttr[a]
		sh.mu.RUnlock()
		l = l[:sort.Search(len(l), func(i int) bool { return l[i].Seq >= ceiling })]
		runs = append(runs, l[sort.Search(len(l), func(i int) bool { return l[i].Seq >= fromSeq }):])
	}
	var out []*Message
	read := 0
	for limit <= 0 || len(out) < limit {
		next := -1
		for i, r := range runs {
			if len(r) > 0 && (next < 0 || r[0].Seq < runs[next][0].Seq) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		out = append(out, runs[next][0])
		read += len(runs[next][0].U) + len(runs[next][0].Ciphertext)
		runs[next] = runs[next][1:]
	}
	obsv.AddStoreReadBytes(read)
	return out
}

func (p *provider) Count() int {
	n := int64(0)
	for _, sh := range p.shards {
		n += sh.messages.Value()
	}
	return int(n)
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
			Fsyncs:     uint64(sh.fsyncs()),
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
