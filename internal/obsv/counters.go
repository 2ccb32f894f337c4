package obsv

import "time"

// process is the registry of the process-wide stage series. They live
// here and not in a service's registry because the packages that bump
// them — field arithmetic, the pairing, the WAL — sit below any service
// wiring and must stay dependency-free. Each series is resolved once,
// below, so a hook is one atomic add, cheap enough for the hot path; the
// instrumentation-overhead budget for the warm deposit path is <=2%.
var process = NewRegistry()

var (
	pairingOps       = process.Counter("pairing_ops")
	scalarMultSecret = process.Counter("scalar_mult_secret")
	scalarMultPublic = process.Counter("scalar_mult_public")
	gidCacheHits     = process.Counter("gid_cache_hits")
	gidCacheMisses   = process.Counter("gid_cache_misses")
	gidCacheEvicts   = process.Counter("gid_cache_evictions")
	walAppends       = process.Counter("wal_appends")
	walFsyncs        = process.Counter("wal_fsyncs")
	storeReadBytes   = process.Counter("store_read_bytes")
	storeWriteBytes  = process.Counter("store_write_bytes")
	storeCompactions = process.Counter("store_compactions")
	connInBytes      = process.Counter("conn_in_bytes")
	connOutBytes     = process.Counter("conn_out_bytes")

	// WAL latency reservoirs: Collect publishes their percentiles as the
	// wal_*_ns gauges.
	walAppendLat, walFsyncLat = NewHistogram(), NewHistogram()
)

// AddPairing records one Tate pairing evaluation.
func AddPairing() { pairingOps.Inc() }

// AddScalarMultSecret records one constant-time secret-scalar
// multiplication.
func AddScalarMultSecret() { scalarMultSecret.Inc() }

// AddScalarMultPublic records one public-input scalar multiplication
// (variable-time ladder or comb).
func AddScalarMultPublic() { scalarMultPublic.Inc() }

// GIDCacheHit / GIDCacheMiss / GIDCacheEvict record g_ID = ê(Q_ID, P_pub)
// cache traffic.
func GIDCacheHit()   { gidCacheHits.Inc() }
func GIDCacheMiss()  { gidCacheMisses.Inc() }
func GIDCacheEvict() { gidCacheEvicts.Inc() }

// ObserveWALAppend records one WAL append (frame write, pre-sync).
func ObserveWALAppend(d time.Duration) {
	walAppends.Inc()
	walAppendLat.Observe(d)
}

// ObserveWALFsync records one WAL file sync.
func ObserveWALFsync(d time.Duration) {
	walFsyncs.Inc()
	walFsyncLat.Observe(d)
}

// addPositive adds n to c; sizes and counts that a caller computed as
// negative are ignored, a counter never runs backwards.
func addPositive(c *Counter, n int) {
	if n > 0 {
		c.Add(uint64(n))
	}
}

// AddStoreReadBytes / AddStoreWriteBytes record storage-layer payload
// traffic (encoded record sizes).
func AddStoreReadBytes(n int)  { addPositive(storeReadBytes, n) }
func AddStoreWriteBytes(n int) { addPositive(storeWriteBytes, n) }

// AddStoreCompactions records n KV log compactions (threshold-triggered
// background sweeps and explicit admin compactions alike).
func AddStoreCompactions(n int) { addPositive(storeCompactions, n) }

// AddConnInBytes / AddConnOutBytes record wire.Server transport traffic.
func AddConnInBytes(n int)  { addPositive(connInBytes, n) }
func AddConnOutBytes(n int) { addPositive(connOutBytes, n) }

// Collect is what a daemon exports: reg flattened, followed by the
// process-wide series. /metrics and TStats both serve its result.
func Collect(reg *Registry) Export {
	app, fs := walAppendLat.Snapshot(), walFsyncLat.Snapshot()
	process.Gauge("wal_append_p50_ns").Set(int64(app.P50))
	process.Gauge("wal_append_p99_ns").Set(int64(app.P99))
	process.Gauge("wal_fsync_p50_ns").Set(int64(fs.P50))
	process.Gauge("wal_fsync_p99_ns").Set(int64(fs.P99))
	e, p := reg.Export(), process.Export()
	e.Counters = append(e.Counters, p.Counters...)
	e.Gauges = append(e.Gauges, p.Gauges...)
	return e
}

// CounterMap is the process-wide counters as a name→value map, the
// convenient shape for benchmark delta arithmetic.
func CounterMap() map[string]uint64 {
	m := make(map[string]uint64)
	for _, s := range process.Export().Counters {
		m[s.Name] = uint64(s.Value)
	}
	return m
}
