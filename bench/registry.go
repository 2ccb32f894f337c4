package main

// The registry names every workload and metric the harness reports.
// BENCHMARK.json at the repository root repeats the same names for the
// driver; bench_test.go fails when the two drift apart.

// workloadSpec describes one workload: its fixed name (later issues cite
// it) and why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

// metricSpec describes one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

var workloads = []workloadSpec{
	{"meter-warm", "two closed-loop depositors at nonce epoch 64: the g_ID cache hits, so ec, wire, mws and storage+fsync share the deposit"},
	{"meter-cold", "same with a fresh nonce per message: one pairing per deposit, so cache and storage changes must not move it"},
	{"mws-ingest", "prepared deposits over 2 connections: device crypto off the clock, so wire, mws, storage and wal do all the work"},
	{"rc-drain", "one client pages 256 messages, fetches keys and decrypts: keyserver extraction and pairing, no write path"},
	{"mixed-rw", "open-loop deposits at a fixed rate beside a tail-polling reader: reads and writes share shards, locks and cores"},
	{"rc-search", "keyword search over a tagged corpus: one server-side pairing per stored tag, linear in the corpus"},
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"msgs_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"stored_bytes_per_msg", "B", "lower", 0.02},
	{"wire_bytes_per_msg", "B", "lower", 0.05},
}

// perLayer metrics are medians from the rung ladder, or counter deltas
// and span statistics of a workload (0 on workloads they do not apply
// to). Layer = package name.
var perLayer = []metricSpec{
	{"ff.mul_ns", "ns", "lower", 0},
	{"ff.e2_mul_ns", "ns", "lower", 0},
	{"ff.inv_ns", "ns", "lower", 0},
	{"ec.comb_mul_us", "us", "lower", 0},
	{"ec.scalar_mult_secret_us", "us", "lower", 0},
	{"ec.hash_to_point_us", "us", "lower", 0},
	{"pairing.pair_us", "us", "lower", 0},
	{"pairing.precomp_pair_us", "us", "lower", 0},
	{"pairing.gt_exp_secret_us", "us", "lower", 0},
	{"pairing.pairings_per_op", "count", "lower", 0},
	{"bfibe.encapsulate_warm_us", "us", "lower", 0},
	{"bfibe.encapsulate_cold_us", "us", "lower", 0},
	{"bfibe.extract_us", "us", "lower", 0},
	{"bfibe.decapsulate_us", "us", "lower", 0},
	{"bfibe.new_decapsulator_us", "us", "lower", 0},
	{"bfibe.decapsulator_per_msg_us", "us", "lower", 0},
	{"bfibe.gid_cache_hit_ratio", "ratio", "higher", 0},
	{"peks.new_tag_us", "us", "lower", 0},
	{"peks.test_us", "us", "lower", 0},
	{"peks.trapdoor_us", "us", "lower", 0},
	{"peks.tags_tested_per_search", "count", "lower", 0},
	{"symenc.seal_ns", "ns", "lower", 0},
	{"symenc.open_ns", "ns", "lower", 0},
	{"macauth.compute_ns", "ns", "lower", 0},
	{"macauth.verify_ns", "ns", "lower", 0},
	{"macauth.replay_check_empty_ns", "ns", "lower", 0},
	{"macauth.replay_check_8k_ns", "ns", "lower", 0},
	{"device.prepare_warm_us", "us", "lower", 0},
	{"device.prepare_cold_us", "us", "lower", 0},
	{"device.prepare_allocs", "count", "lower", 0},
	{"device.deposit_p50_us", "us", "lower", 0},
	{"device.deposit_p99_us", "us", "lower", 0},
	{"wire.ping_rtt_us", "us", "lower", 0},
	{"wire.deposit_marshal_ns", "ns", "lower", 0},
	{"wire.deposit_unmarshal_ns", "ns", "lower", 0},
	{"wire.retrieve_resp_unmarshal_us", "us", "lower", 0},
	{"mws.deposit_handler_us", "us", "lower", 0},
	{"mws.retrieve_handler_us", "us", "lower", 0},
	{"mws.deposit_insitu_us", "us", "lower", 0},
	{"mws.retrieve_insitu_us", "us", "lower", 0},
	{"mws.deposit_drift", "ratio", "lower", 0},
	{"storage.append_never_us", "us", "lower", 0},
	{"storage.append_always_us", "us", "lower", 0},
	{"storage.scan_256_us", "us", "lower", 0},
	{"storage.fsyncs_per_deposit", "count", "lower", 0},
	{"storage.shard_skew", "ratio", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsync_us", "us", "lower", 0},
	{"policy.bindings_for_ns", "ns", "lower", 0},
	{"ticket.seal_token_us", "us", "lower", 0},
	{"ticket.open_token_us", "us", "lower", 0},
	{"keyserver.extract_1_us", "us", "lower", 0},
	{"keyserver.extract_per_item_us", "us", "lower", 0},
	{"keyserver.extract_insitu_us", "us", "lower", 0},
	{"rclient.retrieve_us", "us", "lower", 0},
	{"rclient.fetch_keys_us", "us", "lower", 0},
	{"rclient.decrypt_per_msg_us", "us", "lower", 0},
	{"rclient.keys_per_page", "count", "lower", 0},
	{"rclient.page_p90_ms", "ms", "lower", 0},
	{"rclient.delivery_p50_ms", "ms", "lower", 0},
	{"rclient.tail_lag_p50_ms", "ms", "lower", 0},
	{"bench.generator_late_p50_us", "us", "lower", 0},
	{"bench.late_ratio", "ratio", "lower", 0},
	{"bench.heap_peak_mb", "MB", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.unattributed_ratio", "ratio", "lower", 0},
}

// harnessOnly workloads run in a full run (go run ./bench) and by name,
// but BENCHMARK.json does not list them, so the driver gates nothing on
// them. mws-ingest: its rate falls by half or more inside every run as
// the replay guard fills, its operation is mostly waiting (an fsync and
// four wake-ups), and on a busy host that waiting grows faster than any
// processor slowdown the speedometer can see — two sets of ten runs
// spread 24 % and 9 % and their medians differ by 16 % (README.md, "How
// steady it is").
var harnessOnly = map[string]bool{"mws-ingest": true}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
