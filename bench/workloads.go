package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"mwskit/internal/device"
	"mwskit/internal/rclient"
	"mwskit/internal/sim"
	"mwskit/internal/wire"
)

// phase is what one timed or traced pass of a workload produced.
type phase struct {
	span      time.Duration // nominal measuring time
	msgs      int           // messages of the ops the rate and latencies are taken over
	completed int           // messages of every completed op, for per-message byte counts
	msgsPerS  float64
	rates     []float64 // the samples behind msgsPerS: window or per-op rates
	lats      []float64 // client-observed latency of every op, ms
	winP50    []float64 // median latency of each window, ms
	winMean   []float64 // mean latency of each window, ms
	attempted int
	failed    int
	notes     []string             // what failed
	counters  map[string]uint64    // obsv counter deltas over the pass
	samples   map[string][]float64 // further named sample sets
	due, late int                  // mixed-rw: deposits due, and late or lost
	serverUs  map[string]float64   // mean server-side handler time by op, e.g. "mws.Deposit"
	overhead  float64              // traced pass: median latency of traced ops ÷ untraced ops
	slowdown  float64              // of the host during the pass (hostspeed.go)

	shardAppends []float64 // appends each shard took during the pass
}

func newPhase(d time.Duration) *phase {
	return &phase{span: d, samples: make(map[string][]float64)}
}

// fail counts n failed operations or checks; n == 0 is no failure.
func (ph *phase) fail(n int, format string, args ...any) {
	if n == 0 {
		return
	}
	ph.failed += n
	if len(ph.notes) < 8 {
		ph.notes = append(ph.notes, fmt.Sprintf(format, args...))
	}
}

// setOverhead compares the traced and untraced ops of a traced pass by
// their median latency; a mean follows the one stall either side caught.
func (ph *phase) setOverhead(ops []opRec) {
	var traced, plain []float64
	for _, o := range ops {
		if o.traced {
			traced = append(traced, float64(o.lat))
		} else {
			plain = append(plain, float64(o.lat))
		}
	}
	if len(traced) > 0 && len(plain) > 0 {
		ph.overhead = median(traced) / median(plain)
	}
}

// byWindows derives the rate and latency figures of a phase whose ops
// are fine-grained against a window: the rate is the messages of the
// phase over its length. The ten windows show the drift inside the run;
// their median would report two of them where the state grows.
func (ph *phase) byWindows(ops []opRec) {
	ph.setOverhead(ops)
	var inside []opRec
	for _, o := range ops {
		ph.completed += o.msgs
		if o.end <= ph.span {
			inside = append(inside, o)
			ph.msgs += o.msgs
		}
	}
	ph.lats = latenciesMs(inside)
	ph.rates, ph.winP50, ph.winMean = windowStats(inside, ph.span)
	ph.msgsPerS = float64(ph.msgs) / ph.span.Seconds()
}

// byOps derives them for a phase of few, long ops (a page, a search):
// the rate is messages over the time to the last op's end — the op in
// flight at the deadline runs to completion and counts — and the spread
// comes from each op's own rate.
func (ph *phase) byOps(ops []opRec) {
	ph.setOverhead(ops)
	var last time.Duration
	for _, o := range ops {
		ph.msgs += o.msgs
		ph.lats = append(ph.lats, float64(o.lat)/float64(time.Millisecond))
		ph.rates = append(ph.rates, float64(o.msgs)/o.lat.Seconds())
		last = o.end
	}
	ph.completed, ph.winP50 = ph.msgs, ph.lats
	if last > 0 {
		ph.msgsPerS = float64(ph.msgs) / last.Seconds()
	}
}

// workloadImpl is how a workload is set up and driven.
type workloadImpl struct {
	epoch   int                                       // nonce epoch of the fleet
	preload func(*env) error                          // rest of set-up, after enrolment
	run     func(*env, time.Duration, *tracer) *phase // one pass; nil tracer = untraced
	// deposits says the pass writes: its acks are checked for order, a
	// sample is decrypted, and fsyncs are counted per deposit.
	deposits bool
	// paced says the wall clock sets the rate, not the host's speed.
	paced bool
}

// preloadDeposits is the set-up of a depositing workload: the warehouse
// already holds some messages. Without them the set-up is sixty fsyncs
// and little else, and setup_s follows the disk and the host's wake-up
// latency, not this code (README.md, "How steady it is").
func preloadDeposits(e *env) error { return e.preload(e.cfg.depositPreload, nil) }

var impls = map[string]workloadImpl{
	"meter-warm": {epoch: warmEpoch, preload: preloadDeposits, run: runMeters, deposits: true},
	"meter-cold": {epoch: 1, preload: preloadDeposits, run: runMeters, deposits: true},
	"mws-ingest": {epoch: warmEpoch, preload: preloadDeposits, run: runIngest, deposits: true},
	"rc-drain":   {epoch: warmEpoch, preload: func(e *env) error { return e.preload(e.cfg.drainPreload, nil) }, run: runDrain},
	"mixed-rw":   {epoch: warmEpoch, preload: preloadDeposits, run: runMixed, deposits: true, paced: true},
	"rc-search":  {epoch: warmEpoch, preload: preloadSearch, run: runSearch},
}

// depositOnce is one meter reading deposited and acknowledged. Untraced
// it is the production call; traced, the same steps run one by one
// through public calls so each gets its span.
func depositOnce(dev *device.Device, c *wire.Client, em sim.Emission, tr *tracer) (uint64, error) {
	if tr == nil {
		return dev.Deposit(c, em.Attribute, em.Payload)
	}
	root := tr.op("op.deposit")
	defer tr.close(root)
	var req *wire.DepositRequest
	var err error
	tr.stage("device.prepare", root, func() { req, err = dev.PrepareDeposit(em.Attribute, em.Payload) })
	if err != nil {
		return 0, err
	}
	return sendPrepared(c, req, tr, root)
}

// sendPrepared ships a prepared deposit and decodes the acknowledgement.
func sendPrepared(c *wire.Client, req *wire.DepositRequest, tr *tracer, root int) (uint64, error) {
	var buf []byte
	tr.stage("wire.marshal", root, func() { buf = req.Marshal() })
	var seq uint64
	var err error
	tr.stage("wire.rpc.deposit", root, func() {
		var resp wire.Frame
		if resp, err = c.Do(wire.Frame{Type: wire.TDeposit, Payload: buf}); err != nil {
			return
		}
		var dr *wire.DepositResponse
		if dr, err = wire.UnmarshalDepositResponse(resp.Payload); err == nil {
			seq = dr.Seq
		}
	})
	return seq, err
}

// runMeters is meter-warm and meter-cold: two closed-loop depositors,
// each with its own connection and half the fleet round-robin.
func runMeters(e *env, d time.Duration, tr *tracer) *phase {
	ph := newPhase(d)
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var all []opRec
	var wg sync.WaitGroup
	for g := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops []opRec
			var acks []ack
			attempted, failed := 0, 0
			var firstErr error
			for i := g; time.Now().Before(deadline); i += len(e.conns) {
				mi := i % len(e.devs)
				em := e.fleet.Meters[mi].Next()
				t := tr.alt()
				t0 := time.Now()
				seq, err := depositOnce(e.devs[mi], e.conns[g], em, t)
				t1 := time.Now()
				attempted++
				if err != nil {
					failed++
					firstErr = err
					continue
				}
				ops = append(ops, opRec{end: t1.Sub(start), lat: t1.Sub(t0), msgs: 1, traced: t != nil})
				acks = append(acks, e.newAck(g, seq, em.Attribute, em.Payload, t0, t1))
			}
			e.record(acks...)
			mu.Lock()
			all = append(all, ops...)
			ph.attempted += attempted
			ph.fail(failed, "deposit: %v", firstErr)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.byWindows(all)
	return ph
}

// prepareWindow runs the device crypto for n deposits off the clock,
// round-robin over the fleet, with Device.PrepareDeposits.
func prepareWindow(e *env, n int) ([]*wire.DepositRequest, []sim.Emission, error) {
	ems := make([]sim.Emission, n)
	perDev := make([][]device.BatchItem, len(e.devs))
	for i := range ems {
		mi := i % len(e.devs)
		ems[i] = e.fleet.Meters[mi].Next()
		perDev[mi] = append(perDev[mi], device.BatchItem{Attribute: ems[i].Attribute, Payload: ems[i].Payload})
	}
	reqs := make([]*wire.DepositRequest, n)
	for mi, items := range perDev {
		got, err := e.devs[mi].PrepareDeposits(context.Background(), items)
		if err != nil {
			return nil, nil, err
		}
		for k, r := range got {
			reqs[mi+k*len(e.devs)] = r
		}
	}
	return reqs, ems, nil
}

// runIngest is mws-ingest: ten windows, each a fixed number of deposits
// prepared off the clock and then sent over both connections, so only
// wire, mws, storage and wal are timed. The count per window is fixed by
// the run length, not by how fast the server is, so two commits absorb
// the same deposits and state-size drift compares like for like.
func runIngest(e *env, d time.Duration, tr *tracer) *phase {
	ph := newPhase(d)
	per := int(float64(e.cfg.ingestPerSec) * d.Seconds())
	if per -= per % len(e.conns); per < len(e.conns) {
		per = len(e.conns)
	}
	var all []opRec
	var sending time.Duration // on the clock
	for w := 0; w < windows; w++ {
		reqs, ems, err := prepareWindow(e, per)
		if err != nil {
			ph.attempted++
			ph.fail(1, "prepare: %v", err)
			return ph
		}
		ops := make([][]opRec, len(e.conns))
		var wg sync.WaitGroup
		var mu sync.Mutex
		start := time.Now()
		for g := range e.conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var acks []ack
				for i := g; i < per; i += len(e.conns) {
					t := tr.alt()
					t0 := time.Now()
					root := t.op("op.deposit")
					seq, err := sendPrepared(e.conns[g], reqs[i], t, root)
					t.close(root)
					t1 := time.Now()
					if err != nil {
						mu.Lock()
						ph.fail(1, "deposit: %v", err)
						mu.Unlock()
						continue
					}
					ops[g] = append(ops[g], opRec{lat: t1.Sub(t0), msgs: 1, traced: t != nil})
					acks = append(acks, e.newAck(g, seq, ems[i].Attribute, ems[i].Payload, t0, t1))
				}
				e.record(acks...)
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		sending += elapsed
		ph.attempted += per
		var win []opRec
		for _, o := range ops {
			win = append(win, o...)
		}
		all = append(all, win...)
		ms := latenciesMs(win)
		ph.msgs += len(win)
		ph.lats = append(ph.lats, ms...)
		ph.rates = append(ph.rates, float64(len(win))/elapsed.Seconds())
		ph.winP50 = append(ph.winP50, median(ms))
		ph.winMean = append(ph.winMean, mean(ms))
	}
	ph.setOverhead(all)
	ph.completed = ph.msgs
	if sending > 0 {
		ph.msgsPerS = float64(ph.msgs) / sending.Seconds()
	}
	return ph
}

// page is one retrieval: a page of envelopes, their keys, the plaintexts.
// Untraced it is the production pipeline; traced, its three stages run
// one by one, and only then is the key count known.
func page(e *env, c *wire.Client, cursor uint64, tr *tracer) (msgs []*rclient.Message, keys int, err error) {
	if tr == nil {
		msgs, err = e.rc.RetrieveAndDecrypt(c, e.pkg, cursor, pageLimit)
		return msgs, 0, err
	}
	root := tr.op("op.page")
	defer tr.close(root)
	var r *rclient.Retrieval
	tr.stage("rclient.retrieve", root, func() { r, err = e.rc.Retrieve(c, cursor, pageLimit) })
	if err != nil || len(r.Items) == 0 {
		return nil, 0, err
	}
	id := tr.child("rclient.fetch_keys", root)
	k, _, err := e.rc.FetchKeys(e.pkg, r)
	tr.close(id)
	if err != nil {
		return nil, 0, err
	}
	id = tr.child("rclient.decrypt", root)
	msgs, err = e.rc.DecryptRetrieval(context.Background(), r, k)
	tr.close(id)
	return msgs, len(k), err
}

// digests maps every acknowledged deposit's seq to its payload digest,
// and returns the first seq past them all.
func (e *env) digests() (map[uint64][sha256.Size]byte, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := make(map[uint64][sha256.Size]byte, len(e.acks))
	var next uint64
	for _, a := range e.acks {
		m[a.seq] = a.digest
		next = max(next, a.seq+1)
	}
	return m, next
}

// checkPlaintexts compares decrypted messages with what was deposited.
func checkPlaintexts(ph *phase, msgs []*rclient.Message, want map[uint64][sha256.Size]byte) {
	for _, m := range msgs {
		d, ok := want[m.Seq]
		if !ok {
			ph.fail(1, "message %d was never acknowledged", m.Seq)
		} else if d != sha256.Sum256(m.Payload) {
			ph.fail(1, "message %d decrypts to a different payload", m.Seq)
		}
	}
}

// runDrain is rc-drain: one client pages through the preloaded
// warehouse, the cursor wrapping at the end.
func runDrain(e *env, d time.Duration, tr *tracer) *phase {
	ph := newPhase(d)
	want, end := e.digests()
	start := time.Now()
	deadline := start.Add(d)
	var ops []opRec
	var cursor uint64
	for time.Now().Before(deadline) {
		t := tr.alt()
		t0 := time.Now()
		msgs, keys, err := page(e, e.conns[0], cursor, t)
		t1 := time.Now()
		ph.attempted++
		if err != nil || len(msgs) == 0 {
			ph.fail(1, "page at %d: %d messages, %v", cursor, len(msgs), err)
			cursor = 0
			continue
		}
		checkPlaintexts(ph, msgs, want)
		ops = append(ops, opRec{end: t1.Sub(start), lat: t1.Sub(t0), msgs: len(msgs), traced: t != nil})
		if keys > 0 {
			ph.samples["keys_per_page"] = append(ph.samples["keys_per_page"], float64(keys))
		}
		if cursor = msgs[len(msgs)-1].Seq + 1; cursor >= end {
			cursor = 0
		}
	}
	ph.byOps(ops)
	return ph
}

// searchPlan is what rc-search seeded: the keywords and, per keyword,
// the seqs that must come back.
type searchPlan struct {
	words []string
	hits  map[string]map[uint64]bool
	cred  *rclient.Retrieval // ticket and session key for trapdoor requests
}

// preloadSearch deposits the tagged corpus: every message carries one of
// the eight seeded keywords and one keyword of its own.
func preloadSearch(e *env) error {
	s := &stream{seed: e.cfg.seed, label: "keywords"}
	p := &searchPlan{hits: make(map[string]map[uint64]bool)}
	for i := 0; i < searchWords; i++ {
		w := fmt.Sprintf("kw-%012x", s.next()>>16)
		p.words = append(p.words, w)
		p.hits[w] = make(map[uint64]bool)
	}
	n := e.cfg.searchCorpus
	pick := make([]string, n)
	for i := range pick {
		pick[i] = p.words[s.next()%searchWords]
	}
	before := len(e.acks)
	err := e.preload(n, func(i int) []string { return []string{pick[i], fmt.Sprintf("only-%d-%x", i, e.cfg.seed)} })
	if err != nil {
		return err
	}
	// preload hands message i to connection i%2 in order, so the acks of
	// each connection are in message order.
	next := make([]int, len(e.conns))
	for g := range next {
		next[g] = g
	}
	for _, a := range e.acks[before:] {
		p.hits[pick[next[a.g]]][a.seq] = true
		next[a.g] += len(e.conns)
	}
	if p.cred, err = e.rc.Retrieve(e.conns[0], 0, 1); err != nil {
		return err
	}
	e.plan = p
	return nil
}

// runSearch is rc-search: fetch a trapdoor, search the whole corpus,
// over the eight keywords in turn.
func runSearch(e *env, d time.Duration, tr *tracer) *phase {
	ph := newPhase(d)
	p := e.plan
	start := time.Now()
	deadline := start.Add(d)
	var ops []opRec
	for i := 0; time.Now().Before(deadline); i++ {
		word := p.words[i%len(p.words)]
		t := tr.alt()
		t0 := time.Now()
		root := t.op("op.search")
		var td []byte
		var r *rclient.Retrieval
		var err error
		t.stage("rclient.trapdoor", root, func() { td, err = e.rc.FetchTrapdoor(e.pkg, p.cred, word) })
		if err == nil {
			t.stage("rclient.search", root, func() { r, err = e.rc.Search(e.conns[0], td, 0, 0) })
		}
		t.close(root)
		t1 := time.Now()
		ph.attempted++
		if err != nil {
			ph.fail(1, "search %q: %v", word, err)
			continue
		}
		ok := len(r.Items) == len(p.hits[word])
		for _, it := range r.Items {
			ok = ok && p.hits[word][it.Seq]
		}
		if !ok {
			ph.fail(1, "search %q returned %d envelopes, want the %d seeded", word, len(r.Items), len(p.hits[word]))
			continue
		}
		ops = append(ops, opRec{end: t1.Sub(start), lat: t1.Sub(t0), msgs: e.cfg.searchCorpus, traced: t != nil})
	}
	ph.byOps(ops)
	return ph
}

// runMixed is mixed-rw: one open-loop depositor at a fixed rate, each
// deposit timed from when it was due, beside one client that tail-polls
// on a fixed period.
//
// The reader is paced, not closed-loop: polling back to back it spends a
// whole core on RSA token work for mostly empty pages, and the two
// goroutines of each request ping-pong on one scheduler slot long enough
// to hold the depositor's timer back by a time slice (45% of deposits
// late at 100/s), which measures the Go scheduler, not the warehouse.
func runMixed(e *env, d time.Duration, tr *tracer) *phase {
	ph := newPhase(d)
	_, cursor := e.digests()
	start := time.Now()
	deadline := start.Add(d)
	interval := time.Duration(float64(time.Second) / e.cfg.mixedRate)

	type delivery struct {
		seq    uint64
		at     time.Time
		digest [sha256.Size]byte
	}
	var deliveries []delivery
	var acks []ack
	var genLate, keysPerPage []float64
	var service []opRec // each deposit's send-to-ack time, for the tracing overhead
	var pollErr, depositErr error
	lost := 0
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the depositor
		defer wg.Done()
		defer close(done)
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * interval)
			if !due.Before(deadline) {
				return
			}
			// Sleep to just before the due time and spin through the rest: a
			// sleeping goroutine on a halted virtual processor wakes 0.1 to
			// 1 ms late, by the host's doing, and that lateness was a third
			// of the latency this workload reports and most of its noise.
			time.Sleep(time.Until(due) - spinBeforeDue)
			for time.Now().Before(due) {
			}
			mi := i % len(e.devs)
			em := e.fleet.Meters[mi].Next()
			t := tr.alt()
			sent := time.Now()
			seq, err := depositOnce(e.devs[mi], e.conns[0], em, t)
			acked := time.Now()
			service = append(service, opRec{lat: acked.Sub(sent), traced: t != nil})
			ph.due++ // read only after wg.Wait
			genLate = append(genLate, float64(sent.Sub(due))/float64(time.Microsecond))
			if err != nil {
				lost++
				depositErr = err
				continue
			}
			acks = append(acks, e.newAck(0, seq, em.Attribute, em.Payload, due, acked))
		}
	}()
	go func() { // the tail-polling reader
		defer wg.Done()
		catchUp := 0 // polls since the depositor stopped
		for tick := 1; ; tick++ {
			time.Sleep(time.Until(start.Add(time.Duration(tick) * pollPeriod)))
			stopped := false
			select {
			case <-done:
				stopped = true
				catchUp++
			default:
			}
			msgs, keys, err := page(e, e.conns[1], cursor, tr)
			now := time.Now()
			if err != nil {
				pollErr = err
				return
			}
			// Seqs are dense across the warehouse and C-Services reads every
			// attribute, so a gap means a deposit with a lower seq is still
			// being appended to another shard (ScanAttributes locks the
			// shards one after another, not together): take the contiguous
			// prefix and poll again, or that message is skipped for good.
			for _, m := range msgs {
				if m.Seq != cursor {
					break
				}
				deliveries = append(deliveries, delivery{m.Seq, now, sha256.Sum256(m.Payload)})
				cursor++
			}
			if keys > 0 {
				keysPerPage = append(keysPerPage, float64(keys))
			}
			// A seq drawn by an append that then failed is a gap that never
			// closes; the polls after the last deposit are bounded for it.
			if stopped && (len(msgs) == 0 || catchUp > 50) {
				return
			}
		}
	}()
	wg.Wait()
	e.record(acks...)
	ph.samples["generator_late_us"], ph.samples["keys_per_page"] = genLate, keysPerPage

	ph.attempted = ph.due
	ph.fail(lost, "deposit: %v", depositErr)
	if pollErr != nil {
		ph.fail(1, "tail poll: %v", pollErr)
	}
	// The op is the deposit, from when it was due to its acknowledgement:
	// what a group-commit delay or a slower append shows in first.
	bySeq := make(map[uint64]ack, len(acks))
	var ops []opRec
	for _, a := range acks {
		bySeq[a.seq] = a
		ops = append(ops, opRec{end: a.acked.Sub(start), lat: a.acked.Sub(a.due), msgs: 1})
		if a.acked.Sub(a.due) > lateLimit {
			ph.late++
		}
	}
	ph.late += lost
	ph.byWindows(ops)
	// The rate is what reached the reader: verified deliveries over the
	// time to the last one. The offered rate pins it; it falls only when
	// the reader cannot keep up.
	delivered := 0
	var last time.Duration
	for _, dv := range deliveries { // in delivery order
		a, ok := bySeq[dv.seq]
		switch {
		case !ok:
			ph.fail(1, "delivered message %d was never acknowledged", dv.seq)
			continue
		case a.digest != dv.digest:
			ph.fail(1, "message %d decrypts to a different payload", dv.seq)
			continue
		}
		delete(bySeq, dv.seq)
		delivered++
		last = dv.at.Sub(start)
		ph.samples["delivery_ms"] = append(ph.samples["delivery_ms"], float64(dv.at.Sub(a.due))/float64(time.Millisecond))
		lag := float64(dv.at.Sub(a.acked)) / float64(time.Millisecond)
		ph.samples["tail_lag_ms"] = append(ph.samples["tail_lag_ms"], max(lag, 0))
	}
	ph.fail(len(bySeq), "%d acknowledged deposits were never delivered", len(bySeq))
	ph.msgsPerS = 0
	if last > 0 {
		ph.msgsPerS = float64(delivered) / last.Seconds()
	}
	ph.setOverhead(service)
	return ph
}
