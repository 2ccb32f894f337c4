// Command mwsbench is the end-to-end load generator: it spins up a full
// in-process deployment (MWS + PKG over loopback TCP), drives a synthetic
// smart-meter fleet against it, and prints per-phase latency and
// throughput rows — the measurements the paper's evaluation section never
// published (experiments E5 and E8).
//
//	mwsbench -preset test -meters 30 -messages 300 -scheme AES-128-GCM
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mwskit/internal/core"
	"mwskit/internal/device"
	"mwskit/internal/metrics"
	"mwskit/internal/obsv"
	"mwskit/internal/rclient"
	"mwskit/internal/sim"
	"mwskit/internal/storage"
	"mwskit/internal/wal"
)

// benchReport is the machine-readable result (-json), one object per run.
type benchReport struct {
	Preset     string           `json:"preset"`
	Scheme     string           `json:"scheme"`
	Auth       string           `json:"auth"`
	Meters     int              `json:"meters"`
	Messages   int              `json:"messages"`
	NonceEpoch int              `json:"nonce_epoch"`
	Micro      microResults     `json:"micro"`
	Deposit    depositResult    `json:"deposit"`
	Counters   counterResult    `json:"deposit_counters"`
	Retrieve   []retrieveResult `json:"retrieve"`
	// Storage holds the shard-count comparison (-compare-storage): one
	// shard vs -shards under SyncAlways, concurrent depositors + retrievers.
	Storage []storageBenchResult `json:"storage,omitempty"`
}

type depositResult struct {
	Messages   int     `json:"messages"`
	MsgPerSec  float64 `json:"msgs_per_sec"`
	P50Micros  int64   `json:"p50_us"`
	P90Micros  int64   `json:"p90_us"`
	P99Micros  int64   `json:"p99_us"`
	MeanMicros int64   `json:"mean_us"`
}

type retrieveResult struct {
	Company   string  `json:"company"`
	Messages  int     `json:"messages"`
	MsgPerSec float64 `json:"msgs_per_sec"`
}

// counterResult is the crypto-stage telemetry delta across the deposit
// phase, taken from the obsv process counters (the deployment runs
// in-process, so client encapsulation and server verification both
// land in the same counters — exactly the end-to-end cost per message).
type counterResult struct {
	Pairings           uint64  `json:"pairings"`
	PairingsPerDeposit float64 `json:"pairings_per_deposit"`
	ScalarMultSecret   uint64  `json:"scalar_mult_secret"`
	ScalarMultPublic   uint64  `json:"scalar_mult_public"`
	GIDCacheHits       uint64  `json:"gid_cache_hits"`
	GIDCacheMisses     uint64  `json:"gid_cache_misses"`
	GIDCacheHitRate    float64 `json:"gid_cache_hit_rate"`
	WALAppends         uint64  `json:"wal_appends"`
	WALFsyncs          uint64  `json:"wal_fsyncs"`
	StoreWriteBytes    uint64  `json:"store_write_bytes"`
	ConnOutBytes       uint64  `json:"conn_out_bytes"`
}

// counterDelta reduces two CounterMap samples bracketing the deposit
// phase into the derived per-message rates.
func counterDelta(before, after map[string]uint64, messages int) counterResult {
	d := func(name string) uint64 { return after[name] - before[name] }
	c := counterResult{
		Pairings:         d("pairing_ops"),
		ScalarMultSecret: d("scalar_mult_secret"),
		ScalarMultPublic: d("scalar_mult_public"),
		GIDCacheHits:     d("gid_cache_hits"),
		GIDCacheMisses:   d("gid_cache_misses"),
		WALAppends:       d("wal_appends"),
		WALFsyncs:        d("wal_fsyncs"),
		StoreWriteBytes:  d("store_write_bytes"),
		ConnOutBytes:     d("conn_out_bytes"),
	}
	if messages > 0 {
		c.PairingsPerDeposit = float64(c.Pairings) / float64(messages)
	}
	if lookups := c.GIDCacheHits + c.GIDCacheMisses; lookups > 0 {
		c.GIDCacheHitRate = float64(c.GIDCacheHits) / float64(lookups)
	}
	return c
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mwsbench: ")
	preset := flag.String("preset", "test", "pairing preset: test, bf80, bf112")
	scheme := flag.String("scheme", "AES-128-GCM", "symmetric scheme")
	meters := flag.Int("meters", 30, "meters per kind (3 kinds)")
	messages := flag.Int("messages", 300, "total messages to deposit")
	seed := flag.Int64("seed", 1, "workload seed")
	authMode := flag.String("auth", "mac", "device auth mode: mac (shared key) or ibs (identity-based signature)")
	nonceEpoch := flag.Int("nonce-epoch", 1, "deposits sharing one nonce per device (1 = fresh nonce per message)")
	jsonPath := flag.String("json", "", "also write results as JSON to this file")
	microBudget := flag.Duration("micro-budget", time.Second, "time budget per phase-0 microbenchmark")
	shards := flag.Int("shards", 8, "storage partition count (1 = unpartitioned)")
	compareStorage := flag.Bool("compare-storage", false, "also run the concurrent-append and mixed deposit/retrieve phases on -shards 1 vs -shards N (SyncAlways) and report both")
	mixedWorkers := flag.Int("mixed-workers", 8, "depositor goroutines in the mixed phase")
	mixedMessages := flag.Int("mixed-messages", 400, "total deposits in the mixed phase")
	mixedAttrs := flag.Int("mixed-attrs", 16, "distinct attributes in the mixed phase")
	flag.Parse()

	// Phase 0: offline crypto microbenchmarks, no deployment involved.
	warmEpoch := *nonceEpoch
	if warmEpoch <= 1 {
		warmEpoch = 64
	}
	micro := runMicro(*preset, warmEpoch, *microBudget)
	fmt.Printf("offline hot path (preset=%s):\n", *preset)
	fmt.Printf("  extract:                %8.1f ops/s\n", micro.ExtractPerSec)
	fmt.Printf("  prepare cold (epoch=1): %8.1f msg/s\n", micro.PrepareColdPerSec)
	fmt.Printf("  prepare warm (epoch=%d): %7.1f msg/s\n", warmEpoch, micro.PrepareWarmPerSec)
	fmt.Printf("  prepare warm, no cache: %8.1f msg/s\n", micro.PrepareNoCachePerSec)
	fmt.Printf("  warm speedup:           %8.1fx\n\n", micro.WarmSpeedup)

	dir, err := os.MkdirTemp("", "mwsbench-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	dep, err := core.NewDeployment(core.DeploymentConfig{
		Dir:     dir,
		Preset:  *preset,
		Scheme:  *scheme,
		Sync:    wal.SyncNever,
		Storage: storage.Options{Shards: *shards},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	if err := dep.Start(); err != nil {
		log.Fatal(err)
	}

	fleet := sim.NewFleet(sim.FleetConfig{
		Seed:    *seed,
		PerSite: map[sim.MeterKind]int{sim.Electric: *meters, sim.Water: *meters, sim.Gas: *meters},
	})
	fmt.Printf("deployment: preset=%s scheme=%s auth=%s meters=%d attrs=%d\n",
		*preset, *scheme, *authMode, len(fleet.Meters), len(fleet.Attributes()))

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

	// Register every meter.
	type deviceEntry struct {
		meter *sim.Meter
		dev   *device.Device
	}
	devices := make([]deviceEntry, len(fleet.Meters))
	epochOpt := device.WithNonceEpoch(*nonceEpoch)
	for i, m := range fleet.Meters {
		var sd *device.Device
		var err error
		switch *authMode {
		case "mac":
			var key []byte
			key, err = dep.MWS.RegisterDevice(m.ID)
			if err != nil {
				log.Fatal(err)
			}
			sd, err = dep.NewDevice(m.ID, key, epochOpt)
		case "ibs":
			sd, err = dep.NewSigningDevice(m.ID, epochOpt)
		default:
			log.Fatalf("unknown auth mode %q", *authMode)
		}
		if err != nil {
			log.Fatal(err)
		}
		devices[i] = deviceEntry{meter: m, dev: sd}
	}

	// Enroll the Figure 1 companies and grant their attribute sets.
	scenario := sim.Figure1Scenario([]string{"APTCOMPLEX-SV-CA"})
	rcs := map[string]*rclient.Client{}
	for company, attrs := range scenario.Companies {
		rc, err := dep.EnrollClient(company, []byte("pw-"+company))
		if err != nil {
			log.Fatal(err)
		}
		for _, a := range attrs {
			if _, err := dep.Grant(company, a); err != nil {
				log.Fatal(err)
			}
		}
		rcs[company] = rc
	}

	// Phase 1: deposits. Bracket the phase with counter samples so the
	// report can state pairings-per-deposit and the g_ID cache hit rate.
	countersBefore := obsv.CounterMap()
	depositHist := metrics.NewHistogram()
	start := time.Now()
	for i := 0; i < *messages; i++ {
		e := devices[i%len(devices)]
		em := e.meter.Next()
		depositHist.Time(func() {
			if _, err := e.dev.Deposit(mwsConn, em.Attribute, em.Payload); err != nil {
				log.Fatalf("deposit: %v", err)
			}
		})
	}
	depositElapsed := time.Since(start)
	counters := counterDelta(countersBefore, obsv.CounterMap(), *messages)
	depositSnap := depositHist.Snapshot()
	fmt.Printf("\nSD–MWS deposit phase:   %s\n", depositSnap)
	fmt.Printf("  throughput: %.1f msg/s\n", metrics.Throughput(*messages, depositElapsed))
	fmt.Printf("  pairings: %d (%.2f per deposit)  scalar mults: %d secret / %d public\n",
		counters.Pairings, counters.PairingsPerDeposit, counters.ScalarMultSecret, counters.ScalarMultPublic)
	fmt.Printf("  g_ID cache: %d hits / %d misses (%.1f%% hit rate)  wal: %d appends / %d fsyncs\n",
		counters.GIDCacheHits, counters.GIDCacheMisses, 100*counters.GIDCacheHitRate,
		counters.WALAppends, counters.WALFsyncs)

	report := benchReport{
		Preset:     *preset,
		Scheme:     *scheme,
		Auth:       *authMode,
		Meters:     *meters,
		Messages:   *messages,
		NonceEpoch: *nonceEpoch,
		Micro:      micro,
		Counters:   counters,
		Deposit: depositResult{
			Messages:   *messages,
			MsgPerSec:  metrics.Throughput(*messages, depositElapsed),
			P50Micros:  depositSnap.P50.Microseconds(),
			P90Micros:  depositSnap.P90.Microseconds(),
			P99Micros:  depositSnap.P99.Microseconds(),
			MeanMicros: depositSnap.Mean.Microseconds(),
		},
	}

	// Phase 2+3: each company retrieves and decrypts everything it may see.
	for _, company := range []string{"C-Services", "Electric-and-Gas-Co", "Water-and-Resources-Co"} {
		rc := rcs[company]
		start := time.Now()
		msgs, err := rc.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
		if err != nil {
			log.Fatalf("%s: %v", company, err)
		}
		elapsed := time.Since(start)
		fmt.Printf("%-24s retrieved+decrypted %4d msgs in %v (%.1f msg/s)\n",
			company+":", len(msgs), elapsed.Round(time.Millisecond), metrics.Throughput(len(msgs), elapsed))
		report.Retrieve = append(report.Retrieve, retrieveResult{
			Company:   company,
			Messages:  len(msgs),
			MsgPerSec: metrics.Throughput(len(msgs), elapsed),
		})
	}

	// Phase 4 (optional): the storage-backend comparison on fresh
	// deployments, after the main deployment's phases are done so the
	// obsv counter brackets don't interleave.
	if *compareStorage {
		report.Storage = compareShardCounts(*preset, *scheme, *shards,
			*mixedWorkers, *mixedMessages, *mixedAttrs)
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
}
