// Command bench is the repository's benchmark: six workloads over one
// in-process deployment (bf80, AES-128-GCM, MAC device auth, sharded×8
// storage at SyncAlways, loopback TCP), end-to-end metrics with bounds,
// and per-layer metrics measured from outside the layers. README.md in
// this directory says what each workload and metric is for.
//
//	go run ./bench                                  all workloads, 5 runs each → bench/out/result.json
//	go run ./bench -workload meter-warm -trace 1    one workload, per-layer metrics
//	go run ./bench -validate FILE
//	go run ./bench -compare A B
//
// With -workload it speaks the driver's contract (BENCHMARK.json): the
// last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"mwskit/internal/core"
	"mwskit/internal/obsv"
	"mwskit/internal/wire"
)

func main() {
	cfg := defaultConfig()
	workload := flag.String("workload", "", "run one workload and print the driver's JSON line (default: all six, written to -out)")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 runs the traced pass and the rung ladder and reports the per-layer metrics")
	out := flag.String("out", filepath.Join(cfg.outDir, "result.json"), "without -workload: where the result file goes")
	validateFile := flag.String("validate", "", "check a result file against the declared metrics and exit")
	doCompare := flag.Bool("compare", false, "compare two result files (arguments A B) row by row against the bounds and exit")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the fleet and every other generated input")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "timed phase of each workload, in seconds")
	flag.Parse()

	switch {
	case *validateFile != "":
		r, err := readResult(*validateFile)
		if err != nil {
			fatal(err)
		}
		if bad := validate(r, &cfg); len(bad) > 0 {
			for _, b := range bad {
				fmt.Println(b)
			}
			os.Exit(1)
		}
		fmt.Println("ok")
	case *doCompare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		a, err := readResult(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readResult(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		for i, r := range []*result{a, b} {
			if bad := mismatch(r, &cfg); len(bad) > 0 {
				fatal(fmt.Errorf("%s: %s", flag.Arg(i), strings.Join(bad, "; ")))
			}
		}
		if compare(os.Stdout, a, b) > 0 {
			os.Exit(1)
		}
	case *workload != "":
		if err := contractRun(&cfg, *workload, *trace == 1); err != nil {
			fatal(err)
		}
	default:
		if err := fullRun(&cfg, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// contractRun is one run of one workload as the driver makes it.
func contractRun(cfg *config, name string, traced bool) error {
	if _, ok := findWorkload(name); !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	printHost(cfg)
	var rungs map[string]float64
	if traced {
		var err error
		if rungs, err = runLadder(cfg, seconds(0.3*cfg.seconds)); err != nil {
			return err
		}
	}
	r, err := runWorkload(cfg, name, rungs)
	if err != nil {
		return err
	}
	specs, values := endToEnd, r.e2e
	if traced {
		specs, values = perLayer, r.layer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	reported := make(map[string]mv, len(specs))
	fmt.Printf("%s (seed %d, %.0f s, trace %v):\n", name, cfg.seed, cfg.seconds, traced)
	for _, s := range specs {
		reported[s.Name] = mv{values[s.Name], s.Unit}
		fmt.Printf("  %-34s %14.4f %s\n", s.Name, values[s.Name], s.Unit)
	}
	r.printRaw()
	r.printWindows()
	r.printSpans()
	line, err := json.Marshal(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": reported,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// fullRunRepeats is how many untraced runs of each workload a result
// file holds: as many as -compare needs to resolve a row.
const fullRunRepeats = minCompareSamples

// fullRun climbs the rung ladder once, measures every workload
// fullRunRepeats times untraced and once traced, and writes one result
// file. The untraced runs go round by round — every workload once, then
// every workload again — so a workload's runs are minutes apart: the host
// has slow spells that last a few minutes, and a spell should cost a
// workload one of its runs, not shift all of them.
func fullRun(cfg *config, out string) error {
	printHost(cfg)
	res := &result{Schema: schemaVersion, Host: host(cfg), Workloads: make(map[string]*workloadResult)}
	rungs, err := runLadder(cfg, seconds(cfg.seconds))
	if err != nil {
		return err
	}
	runs := make(map[string]map[string][]float64) // workload → metric → one value per run
	add := func(name string, r *runOut) {
		wr := res.Workloads[name]
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		wr.Notes = append(wr.Notes, r.notes...)
	}
	for _, w := range workloads {
		res.Workloads[w.Name] = &workloadResult{EndToEnd: make(map[string]metricValue), PerLayer: make(map[string]metricValue)}
		runs[w.Name] = make(map[string][]float64)
	}
	for i := 0; i < fullRunRepeats; i++ {
		for _, w := range workloads {
			r, err := runWorkload(cfg, w.Name, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			add(w.Name, r)
			for k, v := range r.e2e {
				runs[w.Name][k] = append(runs[w.Name][k], v)
			}
			wr := res.Workloads[w.Name]
			wr.HostSlowdown = append(wr.HostSlowdown, r.slow[1])
			wr.WindowRates, wr.WindowP50Ms, wr.WindowMeanMs = r.ph.rates, r.ph.winP50, r.ph.winMean
			fmt.Printf("round %d %s: %.1f msgs/s (host slowdown %.3f)\n", i+1, w.Name, r.e2e["msgs_per_s"], r.slow[1])
		}
	}
	failed := 0
	for _, w := range workloads {
		r, err := runWorkload(cfg, w.Name, rungs)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		add(w.Name, r)
		wr := res.Workloads[w.Name]
		for _, s := range endToEnd {
			wr.EndToEnd[s.Name] = summarise(s, runs[w.Name][s.Name])
		}
		for _, s := range perLayer {
			wr.PerLayer[s.Name] = summarise(s, []float64{r.layer[s.Name]})
		}
		fmt.Printf("%s: %d attempted, %d failed — %s\n", w.Name, wr.Attempted, wr.Failed, w.Why)
		printMetrics(os.Stdout, endToEnd, wr.EndToEnd)
		printMetrics(os.Stdout, perLayer, wr.PerLayer)
		for _, n := range wr.Notes {
			fmt.Println("  failed:", n)
		}
		failed += wr.Failed
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := res.write(out); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func printHost(cfg *config) {
	h := host(cfg)
	fmt.Printf("host %s nproc %d gomaxprocs %d %s commit %s preset %s durability %q seed %d load %.2f\n",
		h.Host, h.NProc, h.GoMaxProcs, h.GoVersion, h.Commit, h.Preset, h.Durability, h.Seed, h.LoadAvg1)
}

// runOut is one run of one workload.
type runOut struct {
	e2e    map[string]float64   // timings at reference host speed (hostspeed.go)
	raw    map[string]float64   // the same timings as the clock measured them
	slow   [2]float64           // host slowdown during the set-ups and the timed phase
	layer  map[string]float64   // traced runs only
	setups int                  // set-ups behind setup_s
	ph     *phase               // the untraced timed phase
	spans  map[string]*spanStat // traced runs only

	attempted, failed int
	notes             []string
}

func (r *runOut) count(ph *phase) {
	r.attempted += ph.attempted
	r.failed += ph.failed
	r.notes = append(r.notes, ph.notes...)
}

// printRaw shows what normalising to reference host speed did.
func (r *runOut) printRaw() {
	fmt.Printf("  host slowdown: set-ups %.3f, timed phase %.3f; as measured:", r.slow[0], r.slow[1])
	for _, s := range endToEnd {
		if v, ok := r.raw[s.Name]; ok {
			fmt.Printf(" %s %.4f", s.Name, v)
		}
	}
	fmt.Println()
}

// printWindows shows the ten windows, so drift inside the run is a
// number: the rates, and the first and last window's latency.
func (r *runOut) printWindows() {
	fmt.Printf("  set-ups: %d\n", r.setups)
	fmt.Printf("  windows msgs/s:")
	for _, v := range r.ph.rates {
		fmt.Printf(" %.0f", v)
	}
	fmt.Printf("  (mean %.1f)\n", mean(r.ph.rates))
	if n := len(r.ph.winMean); n > 0 {
		fmt.Printf("  window mean latency: first %.4f ms, last %.4f ms\n", r.ph.winMean[0], r.ph.winMean[n-1])
	}
	for _, n := range r.notes {
		fmt.Println("  failed:", n)
	}
}

// printSpans shows the traced pass stage by stage: how often, how long,
// and how much of that was the stage's own.
func (r *runOut) printSpans() {
	names := make([]string, 0, len(r.spans))
	for n := range r.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.spans[n]
		fmt.Printf("  span %-22s n=%-6d mean %10.1f us  self %10.1f us\n", n, s.count,
			float64(s.total)/float64(s.count)/float64(time.Microsecond), float64(s.self)/float64(s.count)/float64(time.Microsecond))
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// measured runs one pass with the obsv counters, the per-shard append
// counts and the host's speed sampled around it.
func measured(e *env, impl workloadImpl, d time.Duration, tr *tracer, sp *speedometer) *phase {
	before := e.dep.MWS.Store().ShardStats()
	served := e.dep.MetricsSnapshot()
	counters := obsv.CounterMap()
	from := sp.mark()
	ph := impl.run(e, d, tr)
	ph.slowdown = sp.slowdown(from, sp.mark())
	ph.counters = obsv.CounterMap()
	for k := range ph.counters {
		ph.counters[k] -= counters[k]
	}
	ph.serverUs = make(map[string]float64)
	for op, s := range e.dep.MetricsSnapshot() {
		if n := s.Latency.Count - served[op].Latency.Count; n > 0 {
			ph.serverUs[op] = float64(s.Latency.Total-served[op].Latency.Total) / float64(n) / float64(time.Microsecond)
		}
	}
	for i, s := range e.dep.MWS.Store().ShardStats() {
		ph.shardAppends = append(ph.shardAppends, float64(s.Appends-before[i].Appends))
	}
	return ph
}

// An untraced run sets the workload up at least minSetups times and goes
// on while setupBudget lasts: five of the 0.2 s set-ups of meter-warm,
// three of the half-second ones. setup_s is their median at reference
// host speed. Only the last deployment is driven.
const (
	minSetups   = 3
	setupBudget = time.Second
)

// setUp builds the deployment, enrols fleet and client, and runs the
// workload's preload: what setup_s times.
func setUp(cfg *config, impl workloadImpl) (*env, float64, error) {
	t0 := time.Now()
	e, err := newEnv(cfg, impl.epoch)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if impl.preload != nil {
		if err := impl.preload(e); err != nil {
			e.destroy()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return e, time.Since(t0).Seconds(), nil
}

// runWorkload is one run: set-up, warm-up, measurement, verification,
// tear-down. With rungs (the ladder's medians) it is a traced run, which
// sets up once — it reports no setup_s — and splits its time between an
// untraced reference pass and the traced pass.
func runWorkload(cfg *config, name string, rungs map[string]float64) (*runOut, error) {
	impl := impls[name]
	// Generating the client's RSA key takes 50 to 500 ms by chance and is
	// no part of this system: make it before the clock starts.
	if _, err := rcKey(); err != nil {
		return nil, err
	}
	sp := startSpeedometer()
	defer sp.stop()
	var e *env
	var setups []float64
	begin := time.Now()
	again := func() bool {
		if rungs != nil {
			return len(setups) == 0 // a traced run reports no setup_s
		}
		return len(setups) < minSetups || time.Since(begin) < setupBudget
	}
	for again() {
		if e != nil {
			e.destroy()
		}
		var s float64
		var err error
		if e, s, err = setUp(cfg, impl); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer e.destroy()
	// The set-ups of a run are too short to be normalised one by one: they
	// share the slowdown of the stretch they ran in.
	slow := sp.slowdown(0, sp.mark())
	r, err := drive(e, name, impl, rungs, sp)
	if err != nil {
		return nil, err
	}
	r.raw["setup_s"], r.slow[0], r.setups = median(setups), slow, len(setups)
	r.e2e["setup_s"] = median(setups) / slow
	return r, nil
}

// watchHeap samples the bytes held by heap objects until stop is called,
// which returns the peak in MB. The sample is a runtime/metrics read: it
// does not stop the world as runtime.ReadMemStats does.
func watchHeap() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var most uint64
		for {
			metrics.Read(sample)
			most = max(most, sample[0].Value.Uint64())
			select {
			case <-done:
				peak <- most
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(<-peak) / 1e6
	}
}

// perMsg is a byte count per message, and a failure when there was no
// message to divide by.
func perMsg(chk *phase, what string, bytes uint64, msgs int) float64 {
	if msgs == 0 {
		chk.fail(1, "%s: no message completed", what)
		return 0
	}
	return float64(bytes) / float64(msgs)
}

// drive warms a set-up workload, measures it and verifies what it
// produced; it closes the deployment for the reopen check.
func drive(e *env, name string, impl workloadImpl, rungs map[string]float64, sp *speedometer) (*runOut, error) {
	cfg := e.cfg
	r := &runOut{}
	r.count(impl.run(e, seconds(cfg.seconds/10), nil)) // warm-up, discarded
	var tph *phase
	var tr *tracer
	var heapPeak float64
	if rungs == nil {
		r.ph = measured(e, impl, seconds(cfg.seconds), nil, sp)
	} else {
		stop := watchHeap()
		r.ph = measured(e, impl, seconds(0.5*cfg.seconds), nil, sp)
		tr = newTracer()
		tph = measured(e, impl, seconds(0.5*cfg.seconds), tr, sp)
		heapPeak = stop()
		r.count(tph)
		if err := tr.write(cfg.outDir, name); err != nil {
			return nil, err
		}
	}
	r.count(r.ph)

	chk := newPhase(0)
	chk.attempted += 2
	counters := obsv.CounterMap()
	// The two timings are reported at reference host speed; a rate the
	// wall clock paces is whatever the clock says.
	r.raw = map[string]float64{"msgs_per_s": r.ph.msgsPerS, "op_p50_ms": median(r.ph.lats)}
	r.slow[1] = r.ph.slowdown
	rate := r.ph.msgsPerS
	if !impl.paced {
		rate *= r.ph.slowdown
	}
	r.e2e = map[string]float64{
		"msgs_per_s":           rate,
		"op_p50_ms":            median(r.ph.lats) / r.ph.slowdown,
		"stored_bytes_per_msg": perMsg(chk, "stored bytes", counters["store_write_bytes"]-e.opened["store_write_bytes"], len(e.acks)),
		"wire_bytes_per_msg":   perMsg(chk, "wire bytes", r.ph.counters["conn_in_bytes"]+r.ph.counters["conn_out_bytes"], r.ph.completed),
	}
	if rungs != nil {
		r.spans = tr.stats()
		r.layer = layerMetrics(name, impl, r.ph, tph, r.spans, rungs)
		r.layer["bench.heap_peak_mb"] = heapPeak
	}
	if impl.deposits {
		verifyDeposits(e, chk)
	}
	if err := verifyReopen(e, chk); err != nil {
		return nil, err
	}
	r.count(chk)
	return r, nil
}

// verifyDeposits checks the acknowledgements of a writing workload:
// seqs are unique, each depositor saw every shard's seqs grow, and the
// oldest and newest messages decrypt to what was deposited.
func verifyDeposits(e *env, chk *phase) {
	seen := make(map[uint64]bool, len(e.acks))
	last := make(map[[2]int]uint64)
	dup, disorder := 0, 0
	seqs := make([]uint64, 0, len(e.acks))
	for _, a := range e.acks {
		if seen[a.seq] {
			dup++
		}
		seen[a.seq] = true
		k := [2]int{a.g, a.shard}
		if prev, ok := last[k]; ok && a.seq <= prev {
			disorder++
		}
		last[k] = a.seq
		seqs = append(seqs, a.seq)
	}
	chk.attempted += 2
	chk.fail(dup, "%d acknowledged seqs were handed out twice", dup)
	chk.fail(disorder, "%d acknowledgements went backwards within a shard", disorder)

	if len(seqs) == 0 {
		return // every deposit failed and was counted where it did
	}
	want, _ := e.digests()
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	n := min(e.cfg.verifyPage, len(seqs))
	for _, from := range []uint64{0, seqs[len(seqs)-n]} {
		msgs, err := e.rc.RetrieveAndDecrypt(e.conns[0], e.pkg, from, uint32(n))
		chk.attempted += n
		if err != nil || len(msgs) != n {
			chk.fail(n, "verification page from %d: %d messages, %v", from, len(msgs), err)
			continue
		}
		checkPlaintexts(chk, msgs, want)
	}
}

// verifyReopen closes the deployment and opens it again from its
// directory: every acknowledged deposit must have survived.
func verifyReopen(e *env, chk *phase) error {
	if err := e.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	dep, err := core.NewDeployment(deploymentConfig(e.cfg, e.dir))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer dep.Close()
	chk.attempted++
	if got := dep.MWS.MessageCount(); got < len(e.acks) {
		chk.fail(1, "reopened warehouse holds %d messages, %d were acknowledged", got, len(e.acks))
	}
	return nil
}

// layerMetrics assembles the per-layer metrics of a traced run: the rung
// medians, the counter deltas of the untraced phase, and the stage split
// of the traced pass. Metrics that do not apply to the workload are 0.
func layerMetrics(name string, impl workloadImpl, ph, tph *phase, spans map[string]*spanStat, rungs map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	for k, v := range rungs {
		m[k] = v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	c := func(k string) float64 { return float64(ph.counters[k]) }
	hit := ratio(c("gid_cache_hits"), c("gid_cache_hits")+c("gid_cache_misses"))
	m["pairing.pairings_per_op"] = ratio(c("pairing_ops"), float64(ph.attempted))
	m["bfibe.gid_cache_hit_ratio"] = hit
	if name == "rc-search" {
		m["peks.tags_tested_per_search"] = m["pairing.pairings_per_op"]
	}
	if impl.deposits {
		m["device.deposit_p50_us"] = 1000 * median(ph.lats) // mixed-rw: from due time to ack
		m["device.deposit_p99_us"] = 1000 * percentile(ph.lats, 0.99)
		if n := len(ph.winMean); n > 0 {
			m["mws.deposit_drift"] = ratio(ph.winMean[n-1], ph.winMean[0])
		}
		m["storage.fsyncs_per_deposit"] = ratio(c("wal_fsyncs"), c("wal_appends"))
		m["storage.shard_skew"] = ratio(percentile(ph.shardAppends, 1), mean(ph.shardAppends))
	}
	if pages := spans["op.page"]; pages != nil {
		m["rclient.retrieve_us"] = meanUs(spans, "rclient.retrieve")
		m["rclient.fetch_keys_us"] = meanUs(spans, "rclient.fetch_keys")
		if d := spans["rclient.decrypt"]; d != nil {
			m["rclient.decrypt_per_msg_us"] = ratio(float64(d.total)/float64(time.Microsecond), float64(tph.completed))
		}
		m["rclient.keys_per_page"] = median(tph.samples["keys_per_page"])
	}
	if name == "rc-drain" {
		m["rclient.page_p90_ms"] = percentile(ph.lats, 0.9)
	}
	if name == "mixed-rw" {
		m["rclient.delivery_p50_ms"] = median(ph.samples["delivery_ms"])
		m["rclient.tail_lag_p50_ms"] = median(ph.samples["tail_lag_ms"])
		m["bench.generator_late_p50_us"] = median(ph.samples["generator_late_us"])
		m["bench.late_ratio"] = ratio(float64(ph.late), float64(ph.due))
	}
	m["mws.deposit_insitu_us"] = ph.serverUs["mws."+wire.TDeposit.String()]
	m["mws.retrieve_insitu_us"] = ph.serverUs["mws."+wire.TRetrieve.String()]
	m["keyserver.extract_insitu_us"] = ph.serverUs["pkg."+wire.TExtract.String()]
	m["bench.trace_overhead_ratio"] = tph.overhead
	m["bench.unattributed_ratio"] = unattributed(name, tph, spans, m)
	return m
}

// unattributed says what share of the traced operation's mean time is
// not explained by what lies beneath the public calls its spans wrap. The
// client's share comes from the rung ladder (encapsulate, seal and MAC
// inside PrepareDeposit; token, decapsulators and decapsulations of a
// page) times how often the operation pays each; the servers' share is
// their own handler time during the traced pass (unmarshal, handler,
// append, fsync and whatever queueing they saw), and each round trip
// costs a ping. The rungs run alone on an idle process, so client work
// slowed by sharing two cores with the servers lands in the residual.
func unattributed(name string, tph *phase, spans map[string]*spanStat, m map[string]float64) float64 {
	tc := func(k string) float64 { return float64(tph.counters[k]) }
	served := func(op string, t wire.Type) float64 { return tph.serverUs[op+"."+t.String()] }
	rtt := m["wire.ping_rtt_us"]
	var op, sum float64
	switch name {
	case "meter-warm", "meter-cold", "mixed-rw", "mws-ingest":
		op = meanUs(spans, "op.deposit")
		if name != "mws-ingest" {
			hit := tc("gid_cache_hits") / max(tc("gid_cache_hits")+tc("gid_cache_misses"), 1)
			sum += hit*m["bfibe.encapsulate_warm_us"] + (1-hit)*m["bfibe.encapsulate_cold_us"]
			sum += (m["symenc.seal_ns"] + m["macauth.compute_ns"]) / 1000
		}
		sum += m["wire.deposit_marshal_ns"]/1000 + rtt + served("mws", wire.TDeposit)
	case "rc-drain":
		op = meanUs(spans, "op.page")
		keys, msgs := m["rclient.keys_per_page"], float64(pageLimit)
		sum += served("mws", wire.TRetrieve) + m["wire.retrieve_resp_unmarshal_us"] + m["ticket.open_token_us"]
		sum += served("pkg", wire.TExtract) + 2*rtt
		sum += keys*m["bfibe.new_decapsulator_us"] + msgs*m["bfibe.decapsulator_per_msg_us"]/float64(runtime.GOMAXPROCS(0))
	case "rc-search":
		op = meanUs(spans, "op.search")
		sum += served("pkg", wire.TTrapdoor) + served("mws", wire.TRetrieve) + m["ticket.open_token_us"] + 2*rtt
	}
	if op == 0 {
		return 0
	}
	return max(op-sum, sum-op) / op
}
