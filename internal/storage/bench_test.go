package storage

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"mwskit/internal/attr"
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
		if got := p.ScanAttribute("ATTR-3", 0, 0); len(got) != 1000 {
			b.Fatalf("got %d", len(got))
		}
	}
}

func BenchmarkKV(b *testing.B) {
	kv, err := OpenKV(b.TempDir(), SyncNever)
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	val := make([]byte, 64)
	for i := 0; i < 1000; i++ {
		if err := kv.Put(fmt.Sprintf("key-%d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Put", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if err := kv.Put(fmt.Sprintf("key-%d", i%1000), val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Get", func(b *testing.B) {
		for i := 0; b.Loop(); i++ {
			if _, ok := kv.Get(fmt.Sprintf("key-%d", i%1000)); !ok {
				b.Fatal("miss")
			}
		}
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
