// Package core is the public face of mwskit: it assembles the paper's
// four parties — Message Warehousing Service, Private Key Generator,
// smart devices (depositing clients), and receiving clients — into a
// deployable system, and offers the end-to-end operations a downstream
// application calls:
//
//	dep, _ := core.NewDeployment(core.DeploymentConfig{Dir: dir})
//	defer dep.Close()
//	dep.Start()                                  // bind TCP listeners
//	key, _ := dep.MWS.RegisterDevice("meter-1")
//	sd, _ := dep.NewDevice("meter-1", key)
//	sd.Deposit(mwsConn, "ELECTRIC-APT-SV-CA", reading)
//	rc, _ := dep.NewReceivingClient("c-services", password)
//	msgs, _ := rc.RetrieveAndDecrypt(mwsConn, pkgConn, 0, 0)
//
// Everything below this package is exercised through it: the pairing and
// BF-IBE stack, the symmetric layer, the WAL-backed stores, the policy
// and user databases, the ticket machinery, and the wire protocol.
package core

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"path/filepath"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/device"
	"mwskit/internal/keyserver"
	"mwskit/internal/mws"
	"mwskit/internal/obsv"
	"mwskit/internal/rclient"
	"mwskit/internal/storage"
	"mwskit/internal/symenc"
	"mwskit/internal/wire"
)

// DeploymentConfig configures a full MWS + PKG deployment.
type DeploymentConfig struct {
	// Dir is the root data directory (MWS and PKG stores live beneath it).
	Dir string
	// Preset selects pairing parameters: "test", "bf80" (default), "bf112".
	Preset string
	// Scheme names the symmetric scheme devices use by default
	// (default "AES-128-GCM"; the paper's prototype used DES).
	Scheme string
	// FreshnessWindow bounds protocol timestamp skew (default 2 minutes).
	FreshnessWindow time.Duration
	// RequestTimeout bounds each network request end to end; a handler
	// past the deadline is cut off and the client receives a structured
	// CodeTimeout error frame (0 = no bound).
	RequestTimeout time.Duration
	// IdleTimeout disconnects a connection that sits silent between
	// frames (0 = no bound).
	IdleTimeout time.Duration
	// MaxConns caps concurrently served connections per listener; excess
	// connections are rejected with CodeUnavailable (0 = no cap).
	MaxConns int
	// Sync selects store durability (default SyncAlways; tests and
	// benchmarks use SyncNever).
	Sync storage.SyncPolicy
	// Storage tunes the MWS persistence layer (zero value: 8 shards, or
	// what the directory was created with). The PKG's small master-key
	// store is always a standalone storage.OpenKV.
	Storage storage.Options
	// RSABits sizes client token-wrapping keys (default 2048).
	RSABits int
	// Rand is the entropy source (default crypto/rand).
	Rand io.Reader
	// Now is the clock (default time.Now).
	Now func() time.Time
	// Logger receives operational logs (nil discards).
	Logger *slog.Logger
	// MWSTracer and PKGTracer record request spans for the respective
	// services (slow-request log, TTrace, debug listener); nil disables
	// tracing at zero cost.
	MWSTracer *obsv.Tracer
	PKGTracer *obsv.Tracer
}

// Deployment is a co-hosted MWS + PKG pair sharing a ticket key — the
// paper's full server side.
type Deployment struct {
	MWS *mws.Service
	PKG *keyserver.Service

	cfg       DeploymentConfig
	scheme    symenc.Scheme
	mwsServer *wire.Server
	pkgServer *wire.Server
	mwsAddr   net.Addr
	pkgAddr   net.Addr
}

// NewDeployment opens (or creates) a deployment rooted at cfg.Dir. The
// MWS–PKG shared key is generated on first start and persisted under the
// deployment directory, mirroring the paper's assumption that the two
// services share a long-term secret.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	if cfg.Dir == "" {
		return nil, errors.New("core: Dir is required")
	}
	if cfg.Preset == "" {
		cfg.Preset = "bf80"
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "AES-128-GCM"
	}
	if cfg.RSABits == 0 {
		cfg.RSABits = 2048
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	scheme, err := symenc.ByName(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	sharedKey, err := loadOrCreateSharedKey(filepath.Join(cfg.Dir, "shared"), cfg.Rand, cfg.Sync)
	if err != nil {
		return nil, err
	}
	p, err := keyserver.New(keyserver.Config{
		Dir:             filepath.Join(cfg.Dir, "pkg"),
		Preset:          cfg.Preset,
		MWSPKGKey:       sharedKey,
		FreshnessWindow: cfg.FreshnessWindow,
		RequestTimeout:  cfg.RequestTimeout,
		Sync:            cfg.Sync,
		Rand:            cfg.Rand,
		Now:             cfg.Now,
		Logger:          cfg.Logger,
		Tracer:          cfg.PKGTracer,
	})
	if err != nil {
		return nil, err
	}
	m, err := mws.New(mws.Config{
		Dir:             filepath.Join(cfg.Dir, "mws"),
		MWSPKGKey:       sharedKey,
		FreshnessWindow: cfg.FreshnessWindow,
		RequestTimeout:  cfg.RequestTimeout,
		Sync:            cfg.Sync,
		Rand:            cfg.Rand,
		Now:             cfg.Now,
		Logger:          cfg.Logger,
		Tracer:          cfg.MWSTracer,
		Storage:         cfg.Storage,
		IBEParams:       p.Params(), // enables IBS-authenticated deposits
	})
	if err != nil {
		p.Close()
		return nil, err
	}
	return &Deployment{MWS: m, PKG: p, cfg: cfg, scheme: scheme}, nil
}

// loadOrCreateSharedKey persists the MWS–PKG ticket key in a tiny KV of
// its own so restarts keep old tickets decryptable.
func loadOrCreateSharedKey(dir string, rng io.Reader, sync storage.SyncPolicy) ([]byte, error) {
	kv, err := storage.OpenKV(dir, sync)
	if err != nil {
		return nil, err
	}
	defer kv.Close()
	if k, ok := kv.Get("mws-pkg-key"); ok {
		return k, nil
	}
	k := make([]byte, 32)
	if _, err := io.ReadFull(rng, k); err != nil {
		return nil, err
	}
	if err := kv.Put("mws-pkg-key", k); err != nil {
		return nil, err
	}
	return k, nil
}

// Start binds both services to ephemeral loopback ports (or the given
// addresses via StartAt). Safe to skip entirely for in-process use.
func (d *Deployment) Start() error {
	return d.StartAt("127.0.0.1:0", "127.0.0.1:0")
}

// serverOptions translates the deployment's transport limits to wire
// server options.
func (d *Deployment) serverOptions() []wire.ServerOption {
	return []wire.ServerOption{
		wire.WithIdleTimeout(d.cfg.IdleTimeout),
		wire.WithMaxConns(d.cfg.MaxConns),
	}
}

// StartAt binds the MWS and PKG listeners to explicit addresses.
func (d *Deployment) StartAt(mwsAddr, pkgAddr string) error {
	opts := d.serverOptions()
	srv, bound, err := d.MWS.ListenAndServe(mwsAddr, opts...)
	if err != nil {
		return err
	}
	d.mwsServer, d.mwsAddr = srv, bound
	psrv, pbound, err := d.PKG.ListenAndServe(pkgAddr, opts...)
	if err != nil {
		srv.Close()
		d.mwsServer = nil
		return err
	}
	d.pkgServer, d.pkgAddr = psrv, pbound
	return nil
}

// MWSAddr returns the bound MWS address (nil before Start).
func (d *Deployment) MWSAddr() net.Addr { return d.mwsAddr }

// PKGAddr returns the bound PKG address (nil before Start).
func (d *Deployment) PKGAddr() net.Addr { return d.pkgAddr }

// DialMWS opens a client connection to the deployment's MWS listener.
func (d *Deployment) DialMWS() (*wire.Client, error) {
	if d.mwsAddr == nil {
		return nil, errors.New("core: deployment not started")
	}
	return wire.Dial(d.mwsAddr.String())
}

// DialPKG opens a client connection to the deployment's PKG listener.
func (d *Deployment) DialPKG() (*wire.Client, error) {
	if d.pkgAddr == nil {
		return nil, errors.New("core: deployment not started")
	}
	return wire.Dial(d.pkgAddr.String())
}

// Close stops the listeners (if started) and releases all stores.
func (d *Deployment) Close() error {
	var errs []error
	if d.mwsServer != nil {
		errs = append(errs, d.mwsServer.Close())
	}
	if d.pkgServer != nil {
		errs = append(errs, d.pkgServer.Close())
	}
	errs = append(errs, d.MWS.Close(), d.PKG.Close())
	return errors.Join(errs...)
}

// MetricsSnapshot returns a point-in-time per-op view across both
// services, keyed "mws.<Op>" / "pkg.<Op>" — the observable surface the
// paper's §III(iv) scalability requirement implies. Ops appear once they
// have served at least one request.
func (d *Deployment) MetricsSnapshot() map[string]obsv.OpSample {
	out := make(map[string]obsv.OpSample)
	for _, s := range d.MWS.StatsRegistry().Export().Ops {
		out["mws."+s.Op] = s
	}
	for _, s := range d.PKG.StatsRegistry().Export().Ops {
		out["pkg."+s.Op] = s
	}
	return out
}

// Params returns the deployment's public IBE parameters.
func (d *Deployment) Params() *bfibe.Params { return d.PKG.Params() }

// NewDevice builds a device client bound to this deployment's parameters.
// The macKey is the value RegisterDevice returned.
func (d *Deployment) NewDevice(id string, macKey []byte, opts ...device.Option) (*device.Device, error) {
	all := append([]device.Option{device.WithScheme(d.scheme), device.WithRand(d.cfg.Rand), device.WithClock(d.cfg.Now)}, opts...)
	return device.New(id, macKey, d.Params(), all...)
}

// NewSigningDevice enrolls a device under identity-based-signature
// authentication: the PKG extracts the device's signing key and no shared
// MAC key is installed at the MWS (§VIII future work, implemented).
func (d *Deployment) NewSigningDevice(id string, opts ...device.Option) (*device.Device, error) {
	sk, err := d.PKG.ExtractDeviceSigningKey(id)
	if err != nil {
		return nil, err
	}
	all := append([]device.Option{device.WithScheme(d.scheme), device.WithRand(d.cfg.Rand), device.WithClock(d.cfg.Now)}, opts...)
	return device.NewSigning(id, sk, d.Params(), all...)
}

// EnrollClient registers a receiving client end to end: it generates the
// client's RSA keypair, registers identity + password + public key with
// the MWS, and returns a ready-to-use client handle. Applications that
// manage their own keys can use MWS.RegisterClient directly.
func (d *Deployment) EnrollClient(id string, password []byte) (*rclient.Client, error) {
	priv, err := rsa.GenerateKey(d.cfg.Rand, d.cfg.RSABits)
	if err != nil {
		return nil, fmt.Errorf("core: client keygen: %w", err)
	}
	if err := d.MWS.RegisterClient(id, password, &priv.PublicKey); err != nil {
		return nil, err
	}
	return rclient.New(id, password, priv, d.Params(),
		rclient.WithRand(d.cfg.Rand), rclient.WithClock(d.cfg.Now))
}

// Grant forwards to the MWS policy database.
func (d *Deployment) Grant(clientID string, a attr.Attribute) (attr.ID, error) {
	return d.MWS.Grant(clientID, a)
}

// Revoke forwards to the MWS policy database (§III iii).
func (d *Deployment) Revoke(clientID string, a attr.Attribute) error {
	return d.MWS.Revoke(clientID, a)
}
