package storage

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mwskit/internal/attr"
	"mwskit/internal/codec"
	"mwskit/internal/wal"
)

// The directory under testdata/ was written by the commit before the
// storage engines were merged (see testdata/README.md), and has a
// manifest of what that commit's provider read back from it. It pins
// the on-disk formats: this package must read the same records out of
// the same bytes, and write the same bytes for the same records.

type goldenRecord struct {
	Seq        uint64   `json:"seq"`
	DeviceID   string   `json:"device_id"`
	Attribute  string   `json:"attribute"`
	Nonce      string   `json:"nonce"`
	U          string   `json:"u"`
	Ciphertext string   `json:"ciphertext"`
	Scheme     string   `json:"scheme"`
	Timestamp  int64    `json:"timestamp"`
	Tags       []string `json:"tags"`
}

type goldenManifest struct {
	Records []goldenRecord               `json:"records"`
	KV      map[string]map[string]string `json:"kv"`
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (r goldenRecord) message(t *testing.T) *Message {
	t.Helper()
	nonce, err := attr.NonceFromBytes(unhex(t, r.Nonce))
	if err != nil {
		t.Fatal(err)
	}
	m := &Message{Seq: r.Seq, DeviceID: r.DeviceID, Attribute: attr.Attribute(r.Attribute), Nonce: nonce,
		U: unhex(t, r.U), Ciphertext: unhex(t, r.Ciphertext), Scheme: r.Scheme, Timestamp: r.Timestamp}
	for _, tg := range r.Tags {
		m.Tags = append(m.Tags, unhex(t, tg))
	}
	return m
}

// loadGolden copies testdata/<name> into a scratch directory and parses
// its manifest.
func loadGolden(t *testing.T, name string) (dir string, man goldenManifest) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	copyTree(t, filepath.Join("testdata", name), dir)
	return dir, man
}

// checkGolden compares everything a provider holds against a manifest.
func checkGolden(t *testing.T, p Provider, man goldenManifest) {
	t.Helper()
	if p.Count() != len(man.Records) {
		t.Fatalf("Count = %d, want %d", p.Count(), len(man.Records))
	}
	indexed := 0
	for _, a := range p.Attributes() {
		indexed += p.CountAttribute(a)
	}
	if indexed != len(man.Records) {
		t.Fatalf("attribute index holds %d entries, want %d", indexed, len(man.Records))
	}
	for _, r := range man.Records {
		got, _ := p.Get(r.Seq)
		sameMessage(t, r.message(t), got)
	}
	for name, want := range man.KV {
		kv, err := p.KV(name)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		kv.Range(func(k string, v []byte) bool {
			got[k] = hex.EncodeToString(v)
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kv %s:\nwant %v\ngot  %v", name, want, got)
		}
	}
}

// walRecords reads a WAL directory's payloads raw.
func walRecords(t *testing.T, dir string) [][]byte {
	t.Helper()
	log, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	var out [][]byte
	if err := log.Iterate(func(_ uint64, payload []byte) error {
		out = append(out, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenSharded: a sharded×4 directory written before the merge
// reopens with identical records, and re-encoding those records
// reproduces its WAL payloads byte for byte.
func TestGoldenSharded(t *testing.T) {
	dir, man := loadGolden(t, "sharded-4")
	var shardRecords, kvRecords [4][][]byte
	for i := range shardRecords {
		shardRecords[i] = walRecords(t, shardMessagesDir(dir, i))
		kvRecords[i] = walRecords(t, shardKVDirs(dir, "policy", 4)[i])
	}
	p, err := Open(Config{Dir: dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", p.Shards())
	}
	checkGolden(t, p, man)

	framed := 0
	for i, records := range shardRecords {
		for _, record := range records {
			m, err := decodeShardRecord(record)
			if err != nil {
				t.Fatal(err)
			}
			if p.ShardOf(m.Attribute) != i {
				t.Fatalf("seq %d found in shard %d, routed to %d", m.Seq, i, p.ShardOf(m.Attribute))
			}
			stored, _ := p.Get(m.Seq)
			if again := frameShardRecord(stored.Seq, stored.encode()); !bytes.Equal(again, record) {
				t.Fatalf("seq %d re-encodes differently:\nwant %x\ngot  %x", m.Seq, record, again)
			}
			framed++
		}
	}
	if framed != len(man.Records) {
		t.Fatalf("shard WALs hold %d records, want %d", framed, len(man.Records))
	}
	// KV records likewise: every logged Put of a value still live is what
	// encodeKVPut writes today.
	for i, records := range kvRecords {
		for _, record := range records {
			if record[0] != kvOpPut {
				continue
			}
			d := codec.NewDecoder(record[1:])
			key, _ := d.Str()
			val, _ := d.Blob()
			if digestIndex(key, 4) != i {
				t.Fatalf("key %q found in part %d, routed to %d", key, i, digestIndex(key, 4))
			}
			if again := encodeKVPut(key, val); !bytes.Equal(again, record) {
				t.Fatalf("kv put %q re-encodes differently", key)
			}
		}
	}
}
