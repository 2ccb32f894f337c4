package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/core"
	"mwskit/internal/device"
	"mwskit/internal/metrics"
	"mwskit/internal/obsv"
	"mwskit/internal/rclient"
	"mwskit/internal/storage"
)

// storageBenchResult is one shard count's score on a concurrent phase.
// FsyncsPerDeposit is the group-commit headline: under SyncAlways
// batched same-shard deposits share fsyncs, so it falls below 1.
type storageBenchResult struct {
	Phase            string  `json:"phase"`
	Backend          string  `json:"backend"`
	Shards           int     `json:"shards"`
	Workers          int     `json:"workers"`
	Attributes       int     `json:"attributes"`
	Messages         int     `json:"messages"`
	Retrieves        int     `json:"retrieves"`
	MsgPerSec        float64 `json:"msgs_per_sec"`
	P50Micros        int64   `json:"p50_us"`
	P99Micros        int64   `json:"p99_us"`
	WALAppends       uint64  `json:"wal_appends"`
	WALFsyncs        uint64  `json:"wal_fsyncs"`
	FsyncsPerDeposit float64 `json:"fsyncs_per_deposit"`
}

// runStorageBench stands up a fresh deployment over `shards` partitions
// and drives the mixed phase: `workers` depositor goroutines (each with its
// own device, connection, and attribute stride across `attrs` attributes)
// racing alongside two retrieving clients that poll their grants over the
// wire. Durability is SyncAlways throughout — this benchmark measures the
// cost of honoring the ack contract, not of skipping it.
func runStorageBench(preset, scheme string, shards, workers, messages, attrs int) storageBenchResult {
	dir, err := os.MkdirTemp("", "mwsbench-storage-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	dep, err := core.NewDeployment(core.DeploymentConfig{
		Dir:     dir,
		Preset:  preset,
		Scheme:  scheme,
		Sync:    storage.SyncAlways,
		Storage: storage.Options{Shards: shards},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	if err := dep.Start(); err != nil {
		log.Fatal(err)
	}

	attributes := make([]string, attrs)
	for i := range attributes {
		attributes[i] = fmt.Sprintf("SHARD-BENCH-%02d", i)
	}

	devices := make([]*device.Device, workers)
	for i := range devices {
		id := fmt.Sprintf("bench-meter-%02d", i)
		key, err := dep.MWS.RegisterDevice(id)
		if err != nil {
			log.Fatal(err)
		}
		devices[i], err = dep.NewDevice(id, key, device.WithNonceEpoch(64))
		if err != nil {
			log.Fatal(err)
		}
	}

	// Two retrieving clients splitting the attribute space between them.
	type retriever struct {
		id    string
		attrs []string
	}
	retrievers := []retriever{
		{id: "bench-rc-even"}, {id: "bench-rc-odd"},
	}
	for i, a := range attributes {
		r := &retrievers[i%2]
		r.attrs = append(r.attrs, a)
	}
	rcs := make([]*rclient.Client, len(retrievers))
	for i, r := range retrievers {
		rc, err := dep.EnrollClient(r.id, []byte("pw-"+r.id))
		if err != nil {
			log.Fatal(err)
		}
		for _, a := range r.attrs {
			if _, err := dep.Grant(r.id, attr.Attribute(a)); err != nil {
				log.Fatal(err)
			}
		}
		rcs[i] = rc
	}

	countersBefore := obsv.CounterMap()
	hist := metrics.NewHistogram()
	var histMu sync.Mutex
	var wg sync.WaitGroup
	depositsDone := make(chan struct{})
	var retrieves atomic.Int64

	// Retrieval side of the mixed phase: poll until the depositors finish.
	var rwg sync.WaitGroup
	for _, rc := range rcs {
		rc := rc
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			mwsConn, err := dep.DialMWS()
			if err != nil {
				log.Fatal(err)
			}
			defer mwsConn.Close()
			pkgConn, err := dep.DialPKG()
			if err != nil {
				log.Fatal(err)
			}
			defer pkgConn.Close()
			for {
				select {
				case <-depositsDone:
					return
				default:
				}
				if _, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 16); err != nil {
					log.Fatalf("mixed retrieve: %v", err)
				}
				retrieves.Add(1)
				// Polling cadence: real retrieving clients poll on a
				// timer; spinning here would just measure the retrievers
				// stealing CPU from the deposit path.
				select {
				case <-depositsDone:
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
		}()
	}

	perWorker := messages / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := dep.DialMWS()
			if err != nil {
				log.Fatal(err)
			}
			defer conn.Close()
			payload := []byte("reading=42.0kWh")
			for i := 0; i < perWorker; i++ {
				a := attributes[(w+i)%len(attributes)]
				t0 := time.Now()
				if _, err := devices[w].Deposit(conn, attr.Attribute(a), payload); err != nil {
					log.Fatalf("mixed deposit: %v", err)
				}
				d := time.Since(t0)
				histMu.Lock()
				hist.Observe(d)
				histMu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(depositsDone)
	rwg.Wait()

	counters := obsv.CounterMap()
	deposited := perWorker * workers
	snap := hist.Snapshot()
	res := storageBenchResult{
		Phase:      "service-mixed",
		Backend:    storage.BackendSharded,
		Shards:     dep.MWS.Store().Shards(),
		Workers:    workers,
		Attributes: attrs,
		Messages:   deposited,
		Retrieves:  int(retrieves.Load()),
		MsgPerSec:  metrics.Throughput(deposited, elapsed),
		P50Micros:  snap.P50.Microseconds(),
		P99Micros:  snap.P99.Microseconds(),
		WALAppends: counters["wal_appends"] - countersBefore["wal_appends"],
		WALFsyncs:  counters["wal_fsyncs"] - countersBefore["wal_fsyncs"],
	}
	if deposited > 0 {
		res.FsyncsPerDeposit = float64(res.WALFsyncs) / float64(deposited)
	}
	return res
}

// runProviderBench measures the storage engine itself: `workers`
// goroutines appending straight into a storage.Provider under SyncAlways,
// no crypto or wire protocol in the way. This isolates what partitioning
// buys — parallel fsyncs on top of group-commit batching — from the
// end-to-end path, which on small machines is bound by the IBE hot path
// long before the store.
func runProviderBench(shards, workers, messages, attrs int) storageBenchResult {
	dir, err := os.MkdirTemp("", "mwsbench-provider-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	p, err := storage.Open(storage.Config{Dir: dir, Sync: storage.SyncAlways,
		Options: storage.Options{Shards: shards}})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()

	attributes := make([]attr.Attribute, attrs)
	for i := range attributes {
		attributes[i] = attr.Attribute(fmt.Sprintf("SHARD-BENCH-%02d", i))
	}
	payload := []byte("reading=42.0kWh;padding-to-a-realistic-ciphertext-size-......")

	countersBefore := obsv.CounterMap()
	hist := metrics.NewHistogram()
	var histMu sync.Mutex
	var wg sync.WaitGroup
	perWorker := messages / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m := &storage.Message{
					DeviceID:   fmt.Sprintf("bench-meter-%02d", w),
					Attribute:  attributes[(w+i)%len(attributes)],
					Ciphertext: payload,
					Timestamp:  int64(i),
				}
				t0 := time.Now()
				if _, err := p.Append(context.Background(), m); err != nil {
					log.Fatalf("provider append: %v", err)
				}
				d := time.Since(t0)
				histMu.Lock()
				hist.Observe(d)
				histMu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	counters := obsv.CounterMap()
	deposited := perWorker * workers
	snap := hist.Snapshot()
	res := storageBenchResult{
		Phase:      "provider-concurrent",
		Backend:    storage.BackendSharded,
		Shards:     p.Shards(),
		Workers:    workers,
		Attributes: attrs,
		Messages:   deposited,
		MsgPerSec:  metrics.Throughput(deposited, elapsed),
		P50Micros:  snap.P50.Microseconds(),
		P99Micros:  snap.P99.Microseconds(),
		WALAppends: counters["wal_appends"] - countersBefore["wal_appends"],
		WALFsyncs:  counters["wal_fsyncs"] - countersBefore["wal_fsyncs"],
	}
	if deposited > 0 {
		res.FsyncsPerDeposit = float64(res.WALFsyncs) / float64(deposited)
	}
	return res
}

// compareShardCounts benchmarks one shard against `shards` twice — first
// the storage engine alone under heavy append concurrency, then the full
// service with a mixed deposit/retrieve workload — and prints the
// side-by-sides.
func compareShardCounts(preset, scheme string, shards, workers, messages, attrs int) []storageBenchResult {
	provWorkers, provMessages := 4*workers, 8*messages
	fmt.Printf("\nstorage engine, concurrent appends (SyncAlways, %d workers, %d msgs, %d attrs):\n",
		provWorkers, provMessages, attrs)
	results := []storageBenchResult{
		runProviderBench(1, provWorkers, provMessages, attrs),
		runProviderBench(shards, provWorkers, provMessages, attrs),
	}
	printStoragePair(results[0], results[1])

	fmt.Printf("\nservice, mixed deposit/retrieve phase (SyncAlways, %d workers, %d msgs, %d attrs):\n",
		workers, messages, attrs)
	results = append(results,
		runStorageBench(preset, scheme, 1, workers, messages, attrs),
		runStorageBench(preset, scheme, shards, workers, messages, attrs),
	)
	printStoragePair(results[2], results[3])
	return results
}

// printStoragePair prints a one-shard/N-shard result pair and their ratio.
func printStoragePair(one, many storageBenchResult) {
	for _, r := range []storageBenchResult{one, many} {
		extra := ""
		if r.Phase == "service-mixed" {
			extra = fmt.Sprintf("  (%d retrieves alongside)", r.Retrieves)
		}
		fmt.Printf("  shards=%-2d  %8.1f msg/s  p50=%6dus p99=%6dus  fsyncs/deposit=%.3f%s\n",
			r.Shards, r.MsgPerSec, r.P50Micros, r.P99Micros, r.FsyncsPerDeposit, extra)
	}
	if one.MsgPerSec > 0 {
		fmt.Printf("  %d shards vs 1: %.2fx deposit throughput, %.1f%% of its fsyncs\n",
			many.Shards, many.MsgPerSec/one.MsgPerSec,
			100*safeDiv(float64(many.WALFsyncs), float64(one.WALFsyncs)))
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
