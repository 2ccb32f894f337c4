package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/device"
	"mwskit/internal/ff"
	"mwskit/internal/keyserver"
	"mwskit/internal/macauth"
	"mwskit/internal/mws"
	"mwskit/internal/pairing"
	"mwskit/internal/peks"
	"mwskit/internal/policy"
	"mwskit/internal/sim"
	"mwskit/internal/storage"
	"mwskit/internal/symenc"
	"mwskit/internal/ticket"
	"mwskit/internal/userdb"
	"mwskit/internal/wal"
	"mwskit/internal/wire"
)

// The rung ladder times each layer alone, from outside, through its
// public functions: one rung per per-layer metric that is not a property
// of a workload. A rung is the median over rungBatches batches.
const (
	rungBatches = 5
	ladderRungs = 42 // timed rungs below, to share the budget evenly
)

// sinks keep the compiler from discarding a rung's work.
var (
	sinkFp ff.Element
	sinkE2 ff.E2
)

type ladder struct {
	perRung time.Duration
	out     map[string]float64
	err     error
}

// rung measures op and stores its median cost under name, in units of
// unit.
func (l *ladder) rung(name string, unit time.Duration, op func() error) {
	l.timed(name, unit, nil, op)
}

// timed is rung with an untimed prep step before every op; with prep set
// each op is timed on its own.
func (l *ladder) timed(name string, unit time.Duration, prep func() error, op func() error) {
	if l.err != nil {
		return
	}
	fail := func(err error) { l.err = fmt.Errorf("rung %s: %w", name, err) }
	one := func() (time.Duration, error) {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		err := op()
		return time.Since(t), err
	}
	if _, err := one(); err != nil { // absorbs lazy initialisation
		fail(err)
		return
	}
	first, err := one()
	if err != nil {
		fail(err)
		return
	}
	n := int(l.perRung / rungBatches / max(first, time.Nanosecond))
	if n < 1 {
		n = 1
	}
	var per []float64
	for b := 0; b < rungBatches; b++ {
		var total time.Duration
		if prep != nil {
			for i := 0; i < n; i++ {
				d, err := one()
				if err != nil {
					fail(err)
					return
				}
				total += d
			}
		} else {
			t := time.Now()
			for i := 0; i < n; i++ {
				if err := op(); err != nil {
					fail(err)
					return
				}
			}
			total = time.Since(t)
		}
		per = append(per, float64(total)/float64(n)/float64(unit))
	}
	l.out[name] = median(per)
}

const (
	ns = time.Nanosecond
	us = time.Microsecond
)

// runLadder climbs every rung within roughly total and returns the
// medians by metric name.
func runLadder(cfg *config, total time.Duration) (map[string]float64, error) {
	pp, ok := pairing.Presets[cfg.preset]
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", cfg.preset)
	}
	dir, err := os.MkdirTemp(cfg.dataDir, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	l := &ladder{perRung: total / ladderRungs, out: make(map[string]float64)}

	// --- ff, ec, pairing ---
	sys, err := pp.System()
	if err != nil {
		return nil, err
	}
	F := sys.Curve.F
	a, _ := F.RandomNonZero(rand.Reader)
	b, _ := F.RandomNonZero(rand.Reader)
	x2, _ := F.E2Random(rand.Reader)
	y2, _ := F.E2Random(rand.Reader)
	k, err := sys.RandomScalar(rand.Reader)
	if err != nil {
		return nil, err
	}
	comb := sys.G1Comb()
	pt := comb.Mul(k)
	l.rung("ff.mul_ns", ns, func() error { a = a.Mul(b); return nil })
	l.rung("ff.e2_mul_ns", ns, func() error { x2 = x2.Mul(y2); return nil })
	l.rung("ff.inv_ns", ns, func() error { a = a.Inv(); return nil })
	sinkFp, sinkE2 = a, x2
	l.rung("ec.comb_mul_us", us, func() error { comb.Mul(k); return nil })
	l.rung("ec.scalar_mult_secret_us", us, func() error { sys.Curve.ScalarMultSecret(pt, k); return nil })
	hashed := 0
	l.rung("ec.hash_to_point_us", us, func() error {
		hashed++
		_, err := sys.Curve.HashToSubgroup("bench", fmt.Appendf(nil, "identity-%d", hashed%16))
		return err
	})

	// --- bfibe ---
	params, master, err := bfibe.Setup(sys, rand.Reader)
	if err != nil {
		return nil, err
	}
	cold := bfibe.ParamsFromMaster(sys, master)
	cold.SetGIDCacheCap(0)
	var nonce attr.Nonce
	ident := attr.Identity("ELECTRIC-LADDER-SV-CA", nonce)
	qid, err := params.HashIdentity(ident)
	if err != nil {
		return nil, err
	}
	sk, err := master.Extract(params, ident)
	if err != nil {
		return nil, err
	}
	pre := sys.G1Precomp(qid) // any G1 point costs the same; a public one keeps key material out of pairing
	gt := sys.Pair(qid, params.PPub)
	l.rung("pairing.pair_us", us, func() error { sys.Pair(qid, pt); return nil })
	l.rung("pairing.precomp_pair_us", us, func() error { pre.Pair(pt); return nil })
	l.rung("pairing.gt_exp_secret_us", us, func() error { sys.GTExpSecret(gt, k); return nil })
	scheme := symenc.Default()
	keyLen := scheme.KeyLen()
	l.rung("bfibe.encapsulate_warm_us", us, func() error {
		_, _, err := params.Encapsulate(ident, keyLen, rand.Reader)
		return err
	})
	l.rung("bfibe.encapsulate_cold_us", us, func() error {
		_, _, err := cold.Encapsulate(ident, keyLen, rand.Reader)
		return err
	})
	extracted := 0
	l.rung("bfibe.extract_us", us, func() error {
		extracted++
		_, err := master.Extract(params, fmt.Appendf(nil, "identity-%d", extracted%16))
		return err
	})
	enc, symKey, err := params.Encapsulate(ident, keyLen, rand.Reader)
	if err != nil {
		return nil, err
	}
	l.rung("bfibe.decapsulate_us", us, func() error {
		_, err := params.Decapsulate(sk, enc, keyLen)
		return err
	})
	var dec *bfibe.Decapsulator
	l.rung("bfibe.new_decapsulator_us", us, func() error {
		dec, err = params.NewDecapsulator(sk)
		return err
	})
	l.rung("bfibe.decapsulator_per_msg_us", us, func() error {
		_, err := dec.Decapsulate(enc, keyLen)
		return err
	})

	// --- peks ---
	var tag *peks.Tag
	l.rung("peks.new_tag_us", us, func() error {
		tag, err = peks.NewTag(params, "ladder-keyword", rand.Reader)
		return err
	})
	var td *peks.Trapdoor
	l.rung("peks.trapdoor_us", us, func() error {
		td, err = peks.NewTrapdoor(params, master, "ladder-keyword")
		return err
	})
	l.rung("peks.test_us", us, func() error {
		if !peks.Test(params, tag, td) {
			return fmt.Errorf("tag does not match its own trapdoor")
		}
		return nil
	})

	// --- symenc, macauth: one sim payload, one prepared deposit ---
	fleet := sim.NewFleet(sim.FleetConfig{Seed: cfg.seed, Sites: fleetSites[:1]})
	em := fleet.Meters[0].Next()
	aad := []byte("ladder-aad")
	var sealed []byte
	l.rung("symenc.seal_ns", ns, func() error {
		sealed, err = scheme.Seal(symKey, em.Payload, aad)
		return err
	})
	l.rung("symenc.open_ns", ns, func() error {
		_, err := scheme.Open(symKey, sealed, aad)
		return err
	})
	macKey := make([]byte, macauth.KeyLen)
	rand.Read(macKey)
	warmDev, err := device.New("ladder-meter", macKey, params, device.WithNonceEpoch(1<<30))
	if err != nil {
		return nil, err
	}
	req, err := warmDev.PrepareDeposit(em.Attribute, em.Payload)
	if err != nil {
		return nil, err
	}
	l.rung("macauth.compute_ns", ns, func() error { macauth.Compute(macKey, req.MACParts()...); return nil })
	l.rung("macauth.verify_ns", ns, func() error {
		if !macauth.Verify(macKey, req.MAC, req.MACParts()...) {
			return fmt.Errorf("own MAC does not verify")
		}
		return nil
	})
	// The guard prunes entries older than two windows on every Check, so
	// a clock that leaps three windows per call keeps it at one entry,
	// and a clock that stands still keeps every entry live.
	window := 2 * time.Minute
	clock := time.Now()
	checked := 0
	check := func(g *macauth.ReplayGuard) error {
		checked++
		return g.Check(fmt.Appendf(nil, "mac-%d", checked), clock, clock)
	}
	empty := macauth.NewReplayGuard(window)
	l.rung("macauth.replay_check_empty_ns", ns, func() error {
		clock = clock.Add(3 * window)
		return check(empty)
	})
	full := macauth.NewReplayGuard(window)
	for i := 0; i < cfg.replayEntries && l.err == nil; i++ {
		l.err = check(full)
	}
	l.rung("macauth.replay_check_8k_ns", ns, func() error { return check(full) })

	// --- device ---
	l.rung("device.prepare_warm_us", us, func() error {
		_, err := warmDev.PrepareDeposit(em.Attribute, em.Payload)
		return err
	})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	const allocRuns = 200
	for i := 0; i < allocRuns && l.err == nil; i++ {
		_, l.err = warmDev.PrepareDeposit(em.Attribute, em.Payload)
	}
	runtime.ReadMemStats(&ms1)
	l.out["device.prepare_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / allocRuns
	coldDev, err := device.New("ladder-meter", macKey, cold)
	if err != nil {
		return nil, err
	}
	l.rung("device.prepare_cold_us", us, func() error {
		_, err := coldDev.PrepareDeposit(em.Attribute, em.Payload)
		return err
	})

	// --- mws on the memory provider, called directly. Its clock leaps
	// like the one above so the replay guard stays empty and the handler
	// is measured on its own. A second instance holds exactly the
	// rc-drain corpus for the retrieve handler, whose scan is linear in
	// what is stored. ---
	sharedKey := make([]byte, 32)
	rand.Read(sharedKey)
	priv, err := rcKey()
	if err != nil {
		return nil, err
	}
	password := []byte("ladder-password")
	attrs := sim.Figure1Scenario(fleetSites).Companies[company]
	svcClock := time.Now()
	var svcKey []byte
	newService := func(name string) (*mws.Service, error) {
		svc, err := mws.New(mws.Config{
			Dir:       filepath.Join(dir, name),
			MWSPKGKey: sharedKey,
			Storage:   storage.Options{Backend: storage.BackendMemory},
			Now:       func() time.Time { return svcClock },
			IBEParams: params,
		})
		if err != nil {
			return nil, err
		}
		if svcKey, err = svc.RegisterDevice("ladder-meter"); err != nil {
			return nil, err
		}
		if err := svc.RegisterClient(company, password, &priv.PublicKey); err != nil {
			return nil, err
		}
		for _, a := range attrs {
			if _, err := svc.Grant(company, a); err != nil {
				return nil, err
			}
		}
		return svc, nil
	}
	deposited := 0
	nextDeposit := func() *wire.DepositRequest {
		deposited++
		r := *req
		r.Attribute = string(attrs[deposited%len(attrs)])
		svcClock = svcClock.Add(3 * window)
		r.Timestamp = svcClock.Unix()
		r.MAC = macauth.Compute(svcKey, r.MACParts()...)
		return &r
	}
	svc, err := newService("mws")
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	var pending *wire.DepositRequest
	l.timed("mws.deposit_handler_us", us, func() error { pending = nextDeposit(); return nil }, func() error {
		_, err := svc.Deposit(context.Background(), pending)
		return err
	})
	drained, err := newService("mws-drain")
	if err != nil {
		return nil, err
	}
	defer drained.Close()
	for i := 0; i < cfg.drainPreload && l.err == nil; i++ {
		_, l.err = drained.Deposit(context.Background(), nextDeposit())
	}
	credKey := userdb.CredentialKey(company, password)
	var page *wire.RetrieveResponse
	l.rung("mws.retrieve_handler_us", us, func() error {
		blob, err := ticket.SealAuthenticator(credKey, &ticket.Authenticator{RC: company, Timestamp: svcClock})
		if err != nil {
			return err
		}
		page, err = drained.Retrieve(context.Background(), &wire.RetrieveRequest{RC: company, AuthBlob: blob, Limit: pageLimit})
		return err
	})
	if l.err == nil && len(page.Items) != min(pageLimit, cfg.drainPreload) {
		return nil, fmt.Errorf("ladder: retrieve handler returned %d messages", len(page.Items))
	}

	// --- wire ---
	srv, addr, err := svc.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	conn, err := wire.Dial(addr.String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	l.rung("wire.ping_rtt_us", us, func() error {
		_, err := conn.Do(wire.Frame{Type: wire.TPing})
		return err
	})
	var frame []byte
	l.rung("wire.deposit_marshal_ns", ns, func() error { frame = req.Marshal(); return nil })
	l.rung("wire.deposit_unmarshal_ns", ns, func() error {
		_, err := wire.UnmarshalDepositRequest(frame)
		return err
	})
	var pageFrame []byte
	if l.err == nil {
		pageFrame = page.Marshal()
	}
	l.rung("wire.retrieve_resp_unmarshal_us", us, func() error {
		_, err := wire.UnmarshalRetrieveResponse(pageFrame)
		return err
	})

	// --- storage and wal ---
	msg := func(i int) *storage.Message {
		return &storage.Message{
			DeviceID: req.DeviceID, Attribute: attrs[i%len(attrs)], U: req.U,
			Ciphertext: req.Ciphertext, Scheme: req.Scheme, Timestamp: req.Timestamp,
		}
	}
	openSharded := func(name string, sync storage.SyncPolicy) (storage.Provider, error) {
		return storage.Open(storage.Config{
			Dir: filepath.Join(dir, name), Sync: sync,
			Options: storage.Options{Backend: storage.BackendSharded, Shards: 8},
		})
	}
	for _, r := range []struct {
		name string
		sync storage.SyncPolicy
	}{{"storage.append_never_us", storage.SyncNever}, {"storage.append_always_us", storage.SyncAlways}} {
		p, err := openSharded(r.name, r.sync)
		if err != nil {
			return nil, err
		}
		appended := 0
		l.rung(r.name, us, func() error {
			appended++
			_, err := p.Append(context.Background(), msg(appended))
			return err
		})
		p.Close()
	}
	scanned, err := openSharded("scan", storage.SyncNever)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.drainPreload && l.err == nil; i++ {
		_, l.err = scanned.Append(context.Background(), msg(i))
	}
	l.rung("storage.scan_256_us", us, func() error {
		if got := scanned.ScanAttributes(attrs, 0, pageLimit); len(got) != min(pageLimit, cfg.drainPreload) {
			return fmt.Errorf("scan returned %d messages", len(got))
		}
		return nil
	})
	scanned.Close()
	log, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Sync: wal.SyncNever})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	appendFrame := func() error { _, err := log.Append(frame); return err }
	l.rung("wal.append_us", us, appendFrame)
	l.timed("wal.fsync_us", us, appendFrame, log.Sync)

	// --- policy, ticket, keyserver ---
	mem, err := storage.Open(storage.Config{Options: storage.Options{Backend: storage.BackendMemory}})
	if err != nil {
		return nil, err
	}
	defer mem.Close()
	polKV, err := mem.KV("policy")
	if err != nil {
		return nil, err
	}
	pol, err := policy.New(polKV)
	if err != nil {
		return nil, err
	}
	for who, set := range sim.Figure1Scenario(fleetSites).Companies {
		for _, a := range set {
			if _, err := pol.Grant(who, a); err != nil {
				return nil, err
			}
		}
	}
	l.rung("policy.bindings_for_ns", ns, func() error {
		if len(pol.BindingsFor(company)) != len(attrs) {
			return fmt.Errorf("policy lookup lost bindings")
		}
		return nil
	})
	session, err := ticket.NewSessionKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	tk := &ticket.Ticket{RC: company, Bindings: pol.BindingsFor(company), SessionKey: session, IssuedAt: time.Now().Unix()}
	ticketBlob, err := tk.Seal(sharedKey)
	if err != nil {
		return nil, err
	}
	var tokenBlob []byte
	l.rung("ticket.seal_token_us", us, func() error {
		tokenBlob, err = ticket.SealToken(rand.Reader, &priv.PublicKey, &ticket.Token{SessionKey: session, TicketBlob: ticketBlob})
		return err
	})
	l.rung("ticket.open_token_us", us, func() error {
		_, err := ticket.OpenToken(priv, tokenBlob)
		return err
	})
	pkg, err := keyserver.New(keyserver.Config{
		Dir: filepath.Join(dir, "pkg"), Preset: cfg.preset, MWSPKGKey: sharedKey, Sync: storage.SyncNever,
	})
	if err != nil {
		return nil, err
	}
	defer pkg.Close()
	const batchItems = 17
	items := make([]wire.ExtractItem, batchItems)
	for i := range items {
		n, err := attr.NewNonce(rand.Reader)
		if err != nil {
			return nil, err
		}
		items[i] = wire.ExtractItem{AID: uint64(tk.Bindings[i%len(tk.Bindings)].AID), Nonce: n[:]}
	}
	extract := func(items []wire.ExtractItem) func() error {
		return func() error {
			blob, err := ticket.SealAuthenticator(session, &ticket.Authenticator{RC: company, Timestamp: time.Now()})
			if err != nil {
				return err
			}
			_, err = pkg.Extract(context.Background(), &wire.ExtractRequest{RC: company, TicketBlob: ticketBlob, Authenticator: blob, Items: items})
			return err
		}
	}
	l.rung("keyserver.extract_1_us", us, extract(items[:1]))
	l.rung("keyserver.extract_batch", us, extract(items))
	l.out["keyserver.extract_per_item_us"] = (l.out["keyserver.extract_batch"] - l.out["keyserver.extract_1_us"]) / (batchItems - 1)
	delete(l.out, "keyserver.extract_batch")
	return l.out, l.err
}
