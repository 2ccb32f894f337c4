package main

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/core"
	"mwskit/internal/device"
	"mwskit/internal/obsv"
	"mwskit/internal/rclient"
	"mwskit/internal/sim"
	"mwskit/internal/storage"
	"mwskit/internal/wire"
)

// config is everything a run is parameterised by. The sizes are fixed
// for measurement (defaultConfig); the smoke test shrinks them so all
// six workloads fit under the race detector.
type config struct {
	preset  string
	seed    int64
	seconds float64 // timed phase of each workload
	dataDir string  // deployments live in fresh directories beneath it
	outDir  string  // span files and the result file

	depositPreload int     // messages a depositing workload finds in the warehouse
	drainPreload   int     // messages rc-drain pages through
	searchCorpus   int     // tagged messages rc-search tests
	ingestPerSec   int     // mws-ingest deposits per window and second of run
	mixedRate      float64 // mixed-rw deposits due per second
	replayEntries  int     // live entries under macauth.replay_check_8k_ns
	verifyPage     int     // messages decrypted from each end of a deposit run
}

func defaultConfig() config {
	return config{
		preset:         "bf80",
		seed:           1,
		seconds:        15,
		dataDir:        filepath.Join("bench", "out", "data"),
		outDir:         filepath.Join("bench", "out"),
		depositPreload: 256,
		drainPreload:   1024,
		searchCorpus:   128,
		ingestPerSec:   160,
		mixedRate:      100,
		replayEntries:  8192,
		verifyPage:     128,
	}
}

// Fixed fleet shape: 4 sites × 3 kinds = 12 attributes, 4 meters per kind
// per site = 48 meters, fewer live identities than the 256-entry g_ID
// cache holds.
var fleetSites = []string{"NORTHGATE-SV-CA", "RIVERBEND-SJ-CA", "OAKHILL-PA-CA", "BAYVIEW-MV-CA"}

const (
	metersPerKind = 4
	pageLimit     = 256                   // messages per retrieval page
	lateLimit     = 20 * time.Millisecond // a deposit acked later than this after it was due is late
	// The mixed-rw reader's period shares no factor with the 10 ms between
	// deposits, so polls meet deposits at every phase; in step, a deposit
	// due on a tick lands in this page or the next by a microsecond's
	// race, and the median delivery time has two values to choose from.
	pollPeriod    = 23 * time.Millisecond
	spinBeforeDue = time.Millisecond // the mixed-rw depositor's busy wait before each due time
	company       = "C-Services"     // reads every kind at every site (Figure 1)
	warmEpoch     = 64
	searchWords   = 8
)

// stream derives the harness's own seeded choices (keywords, passwords)
// by hashing seed, label and a counter; sim.NewFleet takes the seed
// itself. Cryptographic randomness still comes from crypto/rand.
type stream struct {
	seed  int64
	label string
	n     uint64
}

func (s *stream) next() uint64 {
	h := sha256.Sum256(fmt.Appendf(nil, "%d/%s/%d", s.seed, s.label, s.n))
	s.n++
	return binary.BigEndian.Uint64(h[:8])
}

// rcKey is the receiving client's RSA key. Generating it is input
// generation with a run time that varies several-fold, so it is made once
// per process and kept out of setup_s; registering it is timed.
var rcKey = sync.OnceValues(func() (*rsa.PrivateKey, error) {
	return rsa.GenerateKey(rand.Reader, 2048)
})

// ack is one acknowledged deposit as the depositor saw it.
type ack struct {
	g      int // which load goroutine (connection) made the deposit
	seq    uint64
	shard  int
	digest [sha256.Size]byte // of the deposited payload
	due    time.Time         // when the deposit was due (mixed-rw) or sent
	acked  time.Time
}

// env is one set-up deployment with its enrolled fleet and client.
type env struct {
	cfg   *config
	dir   string
	dep   *core.Deployment
	fleet *sim.Fleet
	devs  []*device.Device // devs[i] belongs to fleet.Meters[i]
	rc    *rclient.Client
	conns []*wire.Client // MWS connections: one per load goroutine
	pkg   *wire.Client

	plan   *searchPlan       // rc-search only
	opened map[string]uint64 // obsv counters once enrolled, before any deposit

	mu   sync.Mutex
	acks []ack // every acknowledged deposit, set-up included
}

func deploymentConfig(cfg *config, dir string) core.DeploymentConfig {
	return core.DeploymentConfig{
		Dir:     dir,
		Preset:  cfg.preset,
		Scheme:  "AES-128-GCM",
		Sync:    storage.SyncAlways,
		Storage: storage.Options{Backend: storage.BackendSharded, Shards: 8},
	}
}

// newEnv builds a deployment in a fresh directory, enrols the fleet at
// the given nonce epoch and the C-Services client with its Figure-1
// grants, and opens the connections. It is what setup_s times, together
// with the workload's own preload.
func newEnv(cfg *config, epoch int) (*env, error) {
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dataDir, "dep-")
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, dir: dir}
	if err := e.open(epoch); err != nil {
		e.close()
		os.RemoveAll(dir)
		return nil, err
	}
	return e, nil
}

func (e *env) open(epoch int) error {
	dep, err := core.NewDeployment(deploymentConfig(e.cfg, e.dir))
	if err != nil {
		return err
	}
	e.dep = dep
	if err := dep.Start(); err != nil {
		return err
	}
	e.fleet = sim.NewFleet(sim.FleetConfig{
		Seed:    e.cfg.seed,
		Sites:   fleetSites,
		PerSite: map[sim.MeterKind]int{sim.Electric: metersPerKind, sim.Water: metersPerKind, sim.Gas: metersPerKind},
	})
	for _, m := range e.fleet.Meters {
		key, err := dep.MWS.RegisterDevice(m.ID)
		if err != nil {
			return err
		}
		d, err := dep.NewDevice(m.ID, key, device.WithNonceEpoch(epoch))
		if err != nil {
			return err
		}
		e.devs = append(e.devs, d)
	}
	priv, err := rcKey()
	if err != nil {
		return err
	}
	pw := &stream{seed: e.cfg.seed, label: "password"}
	password := fmt.Appendf(nil, "pw-%016x", pw.next())
	if err := dep.MWS.RegisterClient(company, password, &priv.PublicKey); err != nil {
		return err
	}
	for _, a := range sim.Figure1Scenario(fleetSites).Companies[company] {
		if _, err := dep.Grant(company, a); err != nil {
			return err
		}
	}
	if e.rc, err = rclient.New(company, password, priv, dep.Params()); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		c, err := dep.DialMWS()
		if err != nil {
			return err
		}
		e.conns = append(e.conns, c)
	}
	e.pkg, err = dep.DialPKG()
	e.opened = obsv.CounterMap()
	return err
}

// close stops the deployment and its connections; the directory stays
// for the reopen check.
func (e *env) close() error {
	for _, c := range e.conns {
		c.Close()
	}
	if e.pkg != nil {
		e.pkg.Close()
	}
	e.conns, e.pkg = nil, nil
	if e.dep == nil {
		return nil
	}
	err := e.dep.Close()
	e.dep = nil
	return err
}

// destroy closes the deployment and removes its directory.
func (e *env) destroy() {
	e.close()
	os.RemoveAll(e.dir)
}

// record notes acknowledged deposits.
func (e *env) record(a ...ack) {
	e.mu.Lock()
	e.acks = append(e.acks, a...)
	e.mu.Unlock()
}

// newAck fills in what verification needs to know about a deposit.
func (e *env) newAck(g int, seq uint64, a attr.Attribute, payload []byte, due, acked time.Time) ack {
	return ack{g: g, seq: seq, shard: e.dep.MWS.Store().ShardOf(a), digest: sha256.Sum256(payload), due: due, acked: acked}
}

// preload deposits n messages over both connections, half the fleet
// each, and records the acknowledgements. tags, when set, names the
// keywords of message i.
func (e *env) preload(n int, tags func(i int) []string) error {
	var wg sync.WaitGroup
	errs := make([]error, len(e.conns))
	for g := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var acks []ack
			for i := g; i < n; i += len(e.conns) {
				mi := i % len(e.devs)
				em := e.fleet.Meters[mi].Next()
				var seq uint64
				var err error
				t := time.Now()
				if tags != nil {
					seq, err = e.devs[mi].DepositTagged(e.conns[g], em.Attribute, em.Payload, tags(i))
				} else {
					seq, err = e.devs[mi].Deposit(e.conns[g], em.Attribute, em.Payload)
				}
				if err != nil {
					errs[g] = fmt.Errorf("preload deposit %d: %w", i, err)
					break
				}
				acks = append(acks, e.newAck(g, seq, em.Attribute, em.Payload, t, time.Now()))
			}
			e.record(acks...)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// hostInfo is recorded in every result so two files can be told apart.
type hostInfo struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Preset     string  `json:"preset"`
	Durability string  `json:"durability"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	LoadAvg1   float64 `json:"load_avg_1m"`
}

func host(cfg *config) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Preset:     cfg.preset,
		Durability: "SyncAlways, sharded x8",
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
	}
	h.Host, _ = os.Hostname()
	// go run and the -buildvcs=false build of run.sh stamp no revision, so
	// ask git, looking no further up than the working directory. A checkout
	// that is not a repository (the driver's) stays "unknown".
	if wd, err := os.Getwd(); err == nil {
		git := func(args ...string) (string, error) {
			cmd := exec.Command("git", args...)
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
			out, err := cmd.Output()
			return strings.TrimSpace(string(out)), err
		}
		if rev, err := git("rev-parse", "--short=12", "HEAD"); err == nil && rev != "" {
			h.Commit = rev
			if dirty, err := git("status", "--porcelain"); err != nil || dirty != "" {
				h.Commit += "+dirty"
			}
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}
