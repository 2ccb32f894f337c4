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
	"time"

	"mwskit/internal/obsv"
)

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append (durable, slowest).
	SyncAlways SyncPolicy = iota
	// SyncNever leaves syncing to the OS (fast, loses recent writes on
	// power failure but never corrupts: recovery truncates torn tails).
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
	if len(ids) == 0 {
		if err := l.openSegment(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Count records in all but the last segment; recover the last.
	for _, id := range ids[:len(ids)-1] {
		n, _, err := scanSegment(l.segmentPath(id), nil)
		if err != nil {
			return nil, err
		}
		l.nextSeq += n
	}
	last := ids[len(ids)-1]
	n, validLen, err := scanSegment(l.segmentPath(last), nil)
	if err != nil {
		return nil, err
	}
	l.nextSeq += n
	// Truncate any torn tail before reopening for append.
	if err := truncateTo(l.segmentPath(last), validLen); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(l.segmentPath(last), os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	l.active, l.activeID, l.activeSize = f, last, validLen
	return l, nil
}

func (l *Log) segmentPath(id uint64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%016x.wal", id))
}

func (l *Log) openSegment(id uint64) error {
	f, err := os.OpenFile(l.segmentPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.active, l.activeID, l.activeSize = f, id, 0
	return nil
}

// Append writes one record and returns its sequence number (0-based,
// monotonically increasing across segments).
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > maxRecordLen {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit", len(payload))
	}
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
	if l.opts.Sync == SyncAlways {
		//mwslint:ignore lockheld fsync under l.mu is the SyncAlways contract: an acked append is on stable storage before the next one enters the log
		if err := l.syncActiveLocked(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
	}
	return seq, nil
}

// syncActiveLocked syncs the active segment, feeding the fsync-latency
// telemetry. Callers hold l.mu.
func (l *Log) syncActiveLocked() error {
	start := time.Now()
	err := l.active.Sync()
	obsv.ObserveWALFsync(time.Since(start))
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

// Sync forces buffered appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	//mwslint:ignore lockheld explicit Sync must flush everything appended before it, which requires excluding writers for the fsync
	return l.syncActiveLocked()
}

// Len returns the number of intact records in the log.
func (l *Log) Len() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Iterate replays every record in append order. The payload slice is
// only valid for the duration of the callback. Iteration reads committed
// segments from disk, so it observes everything appended before the call.
func (l *Log) Iterate(fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Flush so the scan below sees all appended bytes.
	//mwslint:ignore lockheld the pre-iteration flush must exclude writers so the on-disk scan observes a clean prefix; the scan itself runs unlocked
	if err := l.active.Sync(); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: iterate sync: %w", err)
	}
	dir := l.opts.Dir
	l.mu.Unlock()

	ids, err := segmentIDs(dir)
	if err != nil {
		return err
	}
	var seq uint64
	for _, id := range ids {
		path := filepath.Join(dir, fmt.Sprintf("%016x.wal", id))
		_, _, err := scanSegment(path, func(payload []byte) error {
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

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	//mwslint:ignore lockheld the final fsync runs with writers excluded; after closed is set no new appends can enter
	if err := l.active.Sync(); err != nil {
		l.active.Close()
		return err
	}
	return l.active.Close()
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

func truncateTo(path string, n int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if info.Size() == n {
		return nil
	}
	return os.Truncate(path, n)
}
