package storage

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"mwskit/internal/attr"
	"mwskit/internal/obsv"
)

func benchMessage(a attr.Attribute) *Message {
	return &Message{
		DeviceID:   "bench-meter",
		Attribute:  a,
		U:          make([]byte, 129),
		Ciphertext: make([]byte, 300),
		Scheme:     "AES-128-GCM",
		Timestamp:  1278000000,
	}
}

// benchVariants: the durable engine at one shard, and the index alone.
var benchVariants = []variant{variants[0], variants[2]}

func BenchmarkAppend(b *testing.B) {
	for _, v := range benchVariants {
		b.Run(v.name, func(b *testing.B) {
			p := v.open(b, b.TempDir())
			defer p.Close()
			m := benchMessage("BENCH-ATTR")
			for b.Loop() {
				mustAppend(b, p, m)
			}
		})
	}
}

// BenchmarkConcurrentAppend: 16 SyncAlways appenders per processor
// striding over 16 attributes, on each of mwsd -shards' two real values (1
// is the unpartitioned store, 8 the default). Partitioning buys parallel
// fsyncs on top of group-commit batching; fsyncs/op below 1 is the batching.
func BenchmarkConcurrentAppend(b *testing.B) {
	const attrs = 16
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p, err := Open(Config{Dir: b.TempDir(), Sync: SyncAlways, Options: Options{Shards: shards}})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			msgs := make([]*Message, attrs)
			for i := range msgs {
				msgs[i] = benchMessage(attr.Attribute(fmt.Sprintf("ATTR-%d", i)))
			}
			var next atomic.Int64
			b.SetParallelism(16)
			b.RunParallel(func(pb *testing.PB) {
				for i := int(next.Add(1)); pb.Next(); i++ {
					if _, err := p.Append(context.Background(), msgs[i%attrs]); err != nil {
						b.Error(err)
						return
					}
				}
			})
			var fsyncs uint64
			for _, st := range p.ShardStats() {
				fsyncs += st.Fsyncs
			}
			b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/op")
		})
	}
}

func BenchmarkScanAttribute(b *testing.B) {
	p := variants[2].open(b, "")
	defer p.Close()
	// 10k messages across 10 attributes.
	for i := 0; i < 10000; i++ {
		mustAppend(b, p, benchMessage(attr.Attribute(fmt.Sprintf("ATTR-%d", i%10))))
	}
	for b.Loop() {
		if got := p.ScanAttributes(attr.Set{"ATTR-3"}, 0, 0); len(got) != 1000 {
			b.Fatalf("got %d", len(got))
		}
	}
}

// BenchmarkKV: Put and Get at SyncNever, then Put at SyncAlways — one
// writer (one fsync per Put, the registration path) and 16 per processor
// on one part, where Puts that land during an fsync share the next one:
// fsyncs/op below 1 is the group commit.
func BenchmarkKV(b *testing.B) {
	open := func(b *testing.B, sync SyncPolicy) CloserKV {
		kv, err := OpenKV(b.TempDir(), sync)
		if err != nil {
			b.Fatal(err)
		}
		return kv
	}
	val := make([]byte, 64)
	put := func(b *testing.B, kv KV, i int) {
		if err := kv.Put(fmt.Sprintf("key-%d", i%1000), val); err != nil {
			b.Fatal(err)
		}
	}
	kv := open(b, SyncNever)
	defer kv.Close()
	for i := 0; i < 1000; i++ {
		put(b, kv, i)
	}
	b.Run("Put", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			put(b, kv, i)
		}
	})
	b.Run("Get", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, ok := kv.Get(fmt.Sprintf("key-%d", i%1000)); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("PutSyncAlways", func(b *testing.B) {
		kv := open(b, SyncAlways)
		defer kv.Close()
		for i := 0; b.Loop(); i++ {
			put(b, kv, i)
		}
	})
	b.Run("PutParallelSyncAlways", func(b *testing.B) {
		kv := open(b, SyncAlways)
		defer kv.Close()
		var next atomic.Int64
		before := obsv.CounterMap()["wal_fsyncs"]
		b.SetParallelism(16)
		b.RunParallel(func(pb *testing.PB) {
			for i := int(next.Add(1)); pb.Next(); i += 16 {
				if err := kv.Put(fmt.Sprintf("key-%d", i%1000), val); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(obsv.CounterMap()["wal_fsyncs"]-before)/float64(b.N), "fsyncs/op")
	})
}

// BenchmarkRecovery: how long does reopening (replaying) a 10k-message
// directory take?
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	p := variants[0].open(b, dir)
	for i := 0; i < 10000; i++ {
		mustAppend(b, p, benchMessage("ATTR-X"))
	}
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		re := variants[0].open(b, dir)
		if re.Count() != 10000 {
			b.Fatal("recovery lost messages")
		}
		re.Close()
	}
}
