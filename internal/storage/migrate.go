package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mwskit/internal/wal"
)

// migrateV1 reshards a v1 data directory — one message WAL under
// dir/messages, one KV WAL under each dir/<name> — into nshard
// partitions. It is a disk-to-disk copy that runs before any provider
// exists over dir (so it takes no locks), and does nothing on a new or
// empty directory.
//
// Each v1 directory is migrated on its own: drop whatever an earlier,
// killed attempt left in its partitions, copy, make the copy durable,
// then rename the source to <name>.v1. A source still under its own name
// has therefore not been migrated, and one already renamed has been —
// which is all the state a restart needs; the caller writes the marker
// after the last source is done.
func migrateV1(dir string, nshard int) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: scan for v1 layout: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		// Only a directory holding WAL segments is a v1 database; skip the
		// shards themselves, earlier backups and compaction leftovers.
		if !e.IsDir() || strings.HasPrefix(name, "shard-") {
			continue
		}
		if ext := filepath.Ext(name); ext == ".v1" || ext == ".compact" || ext == ".old" {
			continue
		}
		src := filepath.Join(dir, name)
		if segs, _ := filepath.Glob(filepath.Join(src, "*.wal")); len(segs) == 0 {
			continue
		}
		migrate := migrateKV
		if name == "messages" {
			migrate = migrateMessages
		}
		if err := migrate(dir, name, nshard); err != nil {
			return fmt.Errorf("storage: reshard v1 %s: %w", name, err)
		}
		if err := os.Rename(src, src+".v1"); err != nil {
			return fmt.Errorf("storage: retire v1 %s: %w", name, err)
		}
	}
	return nil
}

// migrateMessages copies the v1 message WAL into the shard WALs. A v1
// record's position in its log was its sequence number; the shard frame
// carries it explicitly, so every message keeps its number.
func migrateMessages(dir, name string, nshard int) (err error) {
	logs := make([]*wal.Log, nshard)
	defer func() {
		// Close syncs: the copy is durable before the caller retires the
		// source.
		for _, log := range logs {
			if log != nil {
				err = errors.Join(err, log.Close())
			}
		}
	}()
	for i := range logs {
		target := shardMessagesDir(dir, i)
		if err := os.RemoveAll(target); err != nil {
			return err
		}
		if logs[i], err = wal.Open(wal.Options{Dir: target, Sync: wal.SyncNever}); err != nil {
			return err
		}
	}
	v1, err := wal.Open(wal.Options{Dir: filepath.Join(dir, name), Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	defer v1.Close()
	return v1.Iterate(func(seq uint64, payload []byte) error {
		m, err := decodeMessage(seq, payload)
		if err != nil {
			return err
		}
		_, err = logs[digestIndex(string(m.Attribute), nshard)].Append(frameShardRecord(seq, payload))
		return err
	})
}

// migrateKV replays a v1 KV's live keys into its striped successor.
func migrateKV(dir, name string, nshard int) error {
	targets := shardKVDirs(dir, name, nshard)
	for _, target := range targets {
		if err := os.RemoveAll(target); err != nil {
			return err
		}
	}
	v1, err := openKV([]string{filepath.Join(dir, name)}, SyncNever)
	if err != nil {
		return err
	}
	defer v1.Close()
	striped, err := openKV(targets, SyncNever)
	if err != nil {
		return err
	}
	v1.Range(func(key string, value []byte) bool {
		err = striped.Put(key, value)
		return err == nil
	})
	// Close syncs: the copy is durable before the caller retires the source.
	return errors.Join(err, striped.Close())
}
