// Package wal implements a segmented, CRC-framed, append-only write-ahead
// log. It is the durability substrate under the message, policy, and user
// databases — the paper's prototype used flat files and its future-work
// section (§VIII) explicitly calls for a real storage layer; this is it.
//
// On-disk layout: a directory of segment files named %016x.wal. Each
// record is framed as
//
//	[4B length][4B CRC32C(payload)][payload]
//
// Appends go to the active (highest-numbered) segment and roll over when
// the segment exceeds the configured size. Recovery scans every segment
// in order and truncates the first torn or corrupt record, so a crash
// mid-append loses at most the record being written.
//
// Append only writes; durability is Commit's job. A caller appends under
// its own lock, so that log order is its order, and calls Commit after
// releasing it: concurrent committers share one fsync (group commit).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mwskit/internal/obsv"
)

// SyncPolicy controls what Commit waits for.
type SyncPolicy int

const (
	// SyncAlways makes Commit wait for an fsync (durable).
	SyncAlways SyncPolicy = iota
	// SyncNever leaves syncing to the OS and Commit returns at once
	// (fast, loses recent writes on power failure but never corrupts:
	// recovery truncates torn tails).
	SyncNever
)

// Options configures a Log.
type Options struct {
	// Dir is the directory holding segment files; created if absent.
	Dir string
	// SegmentSize is the rollover threshold in bytes (default 16 MiB).
	SegmentSize int64
	// Sync selects the durability policy (default SyncAlways).
	Sync SyncPolicy
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SegmentSize <= 0 {
		out.SegmentSize = 16 << 20
	}
	return out
}

const headerLen = 8 // 4B length + 4B CRC

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// maxRecordLen bounds a single record (64 MiB); larger lengths in a frame
// header indicate corruption.
const maxRecordLen = 64 << 20

// Log is an append-only record log. All methods are safe for concurrent
// use.
type Log struct {
	opts Options

	mu         sync.Mutex
	active     *os.File
	activeID   uint64
	activeSize int64
	nextSeq    uint64 // sequence number of the next record appended
	closed     bool
	closeErr   error  // Close's final fsync result, what Commit reports after it
	created    uint64 // segments this log has created
	named      uint64 // of them, how many a directory fsync has covered

	gc       *committer // nil under SyncNever
	syncs    atomic.Uint64
	dirSyncs atomic.Uint64 // directory fsyncs run
}

// Open opens (or creates) the log in opts.Dir, recovering from any torn
// tail left by a crash. The returned log is positioned to append after
// the last intact record.
func Open(opts Options) (*Log, error) {
	o := opts.withDefaults()
	if o.Dir == "" {
		return nil, errors.New("wal: Dir is required")
	}
	if o.Sync != SyncAlways && o.Sync != SyncNever {
		return nil, fmt.Errorf("wal: undefined sync policy %d", o.Sync)
	}
	if err := os.MkdirAll(o.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	ids, err := segmentIDs(o.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: o}
	if o.Sync == SyncAlways {
		l.gc = newCommitter(l.Sync)
	}
	if len(ids) == 0 {
		if err := l.openSegment(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Count every segment's records; the last one's may end torn.
	var validLen int64
	for _, id := range ids {
		var n uint64
		if n, validLen, err = scanSegment(l.segmentPath(id), nil); err != nil {
			return nil, err
		}
		l.nextSeq += n
	}
	last := ids[len(ids)-1]
	f, err := os.OpenFile(l.segmentPath(last), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	if err := f.Truncate(validLen); err != nil { // drop any torn tail
		f.Close()
		return nil, fmt.Errorf("wal: truncate: %w", err)
	}
	l.active, l.activeID, l.activeSize = f, last, validLen
	return l, nil
}

func (l *Log) segmentPath(id uint64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%016x.wal", id))
}

// openSegment creates segment id as the active one. Its name is durable
// once the next Sync has fsynced the directory.
func (l *Log) openSegment(id uint64) error {
	f, err := os.OpenFile(l.segmentPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.active, l.activeID, l.activeSize = f, id, 0
	l.created++
	return nil
}

// Append writes one record and returns its sequence number (0-based,
// increasing across segments; Rewrite restarts it at 0).
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.activeSize >= l.opts.SegmentSize {
		//mwslint:ignore lockheld segment rotation seals the active file with writers excluded; WAL order under l.mu is the durability contract
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return l.writeLocked(payload)
}

// writeLocked frames payload onto the active segment. Callers hold l.mu.
func (l *Log) writeLocked(payload []byte) (uint64, error) {
	if len(payload) > maxRecordLen {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
	start := time.Now()
	frame := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[headerLen:], payload)
	if _, err := l.active.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	// Append latency covers the frame write only; fsync cost is tracked
	// separately so the sync policy's contribution stays attributable.
	obsv.ObserveWALAppend(time.Since(start))
	l.activeSize += int64(len(frame))
	seq := l.nextSeq
	l.nextSeq++
	return seq, nil
}

// Commit makes every record appended before the call durable. Under
// SyncAlways it returns once a sync that started after the call, shared
// with concurrent callers, has completed; under SyncNever, at once. After
// Close it reports Close's final fsync, which covered every record.
func (l *Log) Commit() error {
	if l.gc == nil {
		return nil
	}
	if err := l.gc.wait(); err != ErrClosed {
		return err
	}
	return l.closeErr // written before the close could be reported
}

// Rewrite replaces the log's records with records, which must stand for
// every record appended before the call (no append may run during it),
// for a log whose replay converges: any suffix of the old segments
// followed by records replays to what records alone do — true of a map
// logged as puts and deletes, rewritten as one put per live key. The
// old segments are synced first, since a Commit may then sync the fresh
// one alone and a torn old tail would replay as a prefix; records go to
// the fresh segment, synced and named durably (Sync) before the old
// segments are removed oldest first. Sequence numbers restart at 0.
func (l *Log) Rewrite(records [][]byte) error {
	err := l.Sync()
	l.mu.Lock()
	old, first := l.active, l.activeID+1
	if err == nil && l.closed {
		err = ErrClosed
	} else if err == nil {
		err = l.openSegment(first)
	}
	if err == nil {
		old.Close() // synced above, and records hold its content
		l.nextSeq = 0
		for i := 0; i < len(records) && err == nil; i++ {
			_, err = l.writeLocked(records[i])
		}
	}
	l.mu.Unlock()
	if err == nil {
		err = l.Sync()
	}
	ids, _ := segmentIDs(l.opts.Dir) // a segment left behind replays to the same state
	for _, id := range ids {
		if id < first && err == nil {
			err = os.Remove(l.segmentPath(id))
		}
	}
	return err
}

// syncDir makes the log directory's entries durable: a new segment's name.
func (l *Log) syncDir() error {
	l.dirSyncs.Add(1)
	d, err := os.Open(l.opts.Dir)
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	return err
}

func (l *Log) rotateLocked() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: rotate sync: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	return l.openSegment(l.activeID + 1)
}

// Sync forces every record appended so far to stable storage: the active
// segment's fsync and, after a segment was created since the last one,
// the directory's, which makes the segment's name durable (fsync(2)). The
// fsyncs run outside l.mu, so appends go on while the disk works.
func (l *Log) Sync() error {
	l.mu.Lock()
	f, closed, created, named := l.active, l.closed, l.created, l.named
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	start := time.Now()
	err := f.Sync()
	if errors.Is(err, os.ErrClosed) {
		return l.Sync() // rotation, Rewrite or Close shut f meanwhile, syncing it first
	}
	obsv.ObserveWALFsync(time.Since(start))
	if err == nil {
		l.syncs.Add(1)
	}
	if err == nil && named < created {
		if err = l.syncDir(); err == nil {
			l.mu.Lock()
			l.named = max(l.named, created)
			l.mu.Unlock()
		}
	}
	return err
}

// Syncs reports how many fsyncs Sync and Commit have run.
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// Iterate replays every record in append order. The payload slice is
// only valid for the duration of the callback. Iteration reads the
// segments from disk, which show every appended record, synced or not.
func (l *Log) Iterate(fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	ids, err := segmentIDs(l.opts.Dir)
	if err != nil {
		return err
	}
	var seq uint64
	for _, id := range ids {
		_, _, err := scanSegment(l.segmentPath(id), func(payload []byte) error {
			err := fn(seq, payload)
			seq++
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Close syncs and closes the active segment, fsyncing the directory too
// if a segment was created since the last Sync, then waits out any commit
// in flight.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	//mwslint:ignore lockheld the final fsyncs run with writers excluded; after closed is set no new appends can enter
	l.closeErr = l.syncFinalLocked()
	err := errors.Join(l.closeErr, l.active.Close())
	l.mu.Unlock()
	if l.gc != nil {
		l.gc.close()
	}
	return err
}

// syncFinalLocked is Close's final fsync of the active segment and, if a
// segment was created since the last Sync, of the directory, so that a
// Commit reporting it covers the segment's name. Callers hold l.mu.
func (l *Log) syncFinalLocked() error {
	err := l.active.Sync()
	if err == nil && l.named < l.created {
		err = l.syncDir()
		l.named = l.created
	}
	return err
}

// segmentIDs lists segment numbers in ascending order.
func segmentIDs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 16, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// scanSegment reads records from a segment, invoking fn for each intact
// record (fn may be nil to just count). It returns the record count and
// the byte offset of the end of the last intact record; a torn or corrupt
// tail simply terminates the scan at that offset.
func scanSegment(path string, fn func(payload []byte) error) (count uint64, validLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: open: %w", err)
	}
	defer f.Close()
	var header [headerLen]byte
	buf := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			return count, validLen, nil // clean EOF or torn header: stop
		}
		n := binary.BigEndian.Uint32(header[0:4])
		want := binary.BigEndian.Uint32(header[4:8])
		if n > maxRecordLen {
			return count, validLen, nil // corrupt length: stop
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(f, buf); err != nil {
			return count, validLen, nil // torn payload: stop
		}
		if crc32.Checksum(buf, castagnoli) != want {
			return count, validLen, nil // corrupt payload: stop
		}
		if fn != nil {
			if err := fn(buf); err != nil {
				return count, validLen, err
			}
		}
		count++
		validLen += int64(headerLen) + int64(n)
	}
}
