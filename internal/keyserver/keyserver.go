// Package keyserver implements the Private Key Generator (PKG) of the
// paper (§V.B): the trusted party that runs IBE Setup, publishes the
// system parameters (P, sP), guards the master secret s, and extracts
// per-message private keys sI for retrieving clients that present a valid
// MWS-issued ticket.
//
// The PKG never learns message contents; it learns only which attribute
// digests keys were extracted for. Conversely, the RC never learns the
// attribute behind an AID: the PKG resolves AIDs from the sealed ticket
// the MWS minted (§V.D, RC–PKG phase).
package keyserver

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"path/filepath"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/fanout"
	"mwskit/internal/ibs"
	"mwskit/internal/macauth"
	"mwskit/internal/obsv"
	"mwskit/internal/pairing"
	"mwskit/internal/peks"
	"mwskit/internal/storage"
	"mwskit/internal/ticket"
	"mwskit/internal/wire"
)

// Config parameterizes a Service.
type Config struct {
	// Dir is the PKG's data directory (master key persistence).
	Dir string
	// Preset names the pairing parameter set ("test", "bf80", "bf112").
	Preset string
	// MWSPKGKey is the long-term secret shared with the MWS (32 bytes).
	MWSPKGKey []byte
	// FreshnessWindow bounds authenticator skew (default 2 minutes).
	FreshnessWindow time.Duration
	// RequestTimeout bounds each network request end to end: a handler
	// past the deadline is cut off and the client receives a structured
	// CodeTimeout error frame (0 = no bound).
	RequestTimeout time.Duration
	// Sync selects store durability (default SyncAlways).
	Sync storage.SyncPolicy
	// Rand is the entropy source (default crypto/rand).
	Rand io.Reader
	// Now is the clock, swappable in tests.
	Now func() time.Time
	// Logger receives operational logs (nil discards).
	Logger *slog.Logger
	// Tracer records request spans for the debug surface and slow-request
	// log; nil disables tracing at zero cost.
	Tracer *obsv.Tracer
}

// Service is the running PKG.
type Service struct {
	cfg    Config
	sys    *pairing.System
	params *bfibe.Params
	master *bfibe.MasterKey
	kv     storage.CloserKV
	replay *macauth.ReplayGuard
	stats  *obsv.Registry
	router *wire.Router
}

const masterKeyKey = "master-key"

// New opens (or creates) a PKG. On first start it runs IBE Setup and
// persists the master secret; later starts reload it, so extracted keys
// remain valid across restarts.
func New(cfg Config) (*Service, error) {
	if cfg.Dir == "" {
		return nil, errors.New("keyserver: Dir is required")
	}
	if len(cfg.MWSPKGKey) != 32 {
		return nil, errors.New("keyserver: MWSPKGKey must be 32 bytes")
	}
	pp, ok := pairing.Presets[cfg.Preset]
	if !ok {
		return nil, fmt.Errorf("keyserver: unknown preset %q", cfg.Preset)
	}
	if cfg.FreshnessWindow <= 0 {
		cfg.FreshnessWindow = 2 * time.Minute
	}
	if cfg.Rand == nil {
		cfg.Rand = attr.RandReader
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	sys, err := pp.System()
	if err != nil {
		return nil, err
	}
	kv, err := storage.OpenKV(filepath.Join(cfg.Dir, "pkg"), cfg.Sync)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:    cfg,
		sys:    sys,
		kv:     kv,
		replay: macauth.NewReplayGuard(cfg.FreshnessWindow),
		stats:  obsv.NewRegistry(),
	}
	s.stats.GaugeFunc("replay_guard_entries", func() int64 { return int64(s.replay.Len()) }, obsv.L("guard", "session"))
	if raw, ok := kv.Get(masterKeyKey); ok {
		mk, err := bfibe.UnmarshalMasterKey(sys, raw)
		if err != nil {
			kv.Close()
			return nil, fmt.Errorf("keyserver: corrupt master key: %w", err)
		}
		s.master = mk
		s.params = bfibe.ParamsFromMaster(sys, mk)
	} else {
		params, mk, err := bfibe.Setup(sys, cfg.Rand)
		if err != nil {
			kv.Close()
			return nil, err
		}
		if err := kv.Put(masterKeyKey, bfibe.MarshalMasterKey(sys, mk)); err != nil {
			kv.Close()
			return nil, err
		}
		s.master = mk
		s.params = params
	}
	s.router = wire.NewRouter(s.stats, s.cfg.Tracer, s.cfg.RequestTimeout, s.cfg.Logger,
		wire.Bind(wire.OpParams, s.PublicParams),
		wire.Bind(wire.OpExtract, s.Extract),
		wire.Bind(wire.OpTrapdoor, s.Trapdoor),
	)
	return s, nil
}

// Close releases the PKG's store.
func (s *Service) Close() error { return s.kv.Close() }

// Params returns the public IBE parameters.
func (s *Service) Params() *bfibe.Params { return s.params }

// PublicParams answers the parameter-distribution request smart devices
// issue at registration.
func (s *Service) PublicParams(context.Context, *wire.Empty) (*wire.ParamsResponse, error) {
	return &wire.ParamsResponse{
		Preset: s.cfg.Preset,
		PPub:   bfibe.MarshalParams(s.params),
	}, nil
}

// ExtractDeviceSigningKey issues the identity-based signing key for a
// device (the §VIII extension that replaces per-device shared MAC keys).
// This is a registration-channel operation, like MAC-key delivery: it is
// invoked by the operator, not exposed on the network endpoint.
func (s *Service) ExtractDeviceSigningKey(deviceID string) (*bfibe.PrivateKey, error) {
	if deviceID == "" {
		return nil, errors.New("keyserver: empty device ID")
	}
	return s.master.Extract(s.params, ibs.DeviceIdentity(deviceID))
}

// openSession authenticates one RC–PKG request, the discipline Extract and
// Trapdoor share: open the ticket (sealed by the MWS under the shared
// key), open the authenticator (sealed under the ticket's session key,
// fresh), and refuse a replay. One authenticator, one session: that is
// how "a private key can only be used once" (§V.C) is enforced at the PKG.
func (s *Service) openSession(ctx context.Context, rc string, ticketBlob, authenticator []byte) (*ticket.Ticket, error) {
	_, sp := obsv.StartSpan(ctx, "ticket.open")
	defer sp.End()
	sp.SetAttr("rc", rc)
	denied := &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
	tk, err := ticket.OpenTicket(s.cfg.MWSPKGKey, ticketBlob)
	if err != nil || tk.RC != rc {
		sp.SetErr(err)
		return nil, denied
	}
	now := s.cfg.Now()
	auth, err := ticket.OpenAuthenticator(tk.SessionKey, authenticator, now, s.cfg.FreshnessWindow)
	if err != nil || auth.RC != rc {
		sp.SetErr(err)
		return nil, denied
	}
	if err := s.replay.Check(authenticator, auth.Timestamp, now); err != nil {
		sp.SetErr(err)
		return nil, &wire.ErrorMsg{Code: wire.CodeReplay, Message: err.Error()}
	}
	return tk, nil
}

// Extract serves the RC–PKG phase: authenticate the session, then for each
// AID ‖ Nonce resolve the attribute from the ticket, derive the
// per-message identity I = SHA1(A ‖ Nonce), extract sI, and return it
// sealed under the session key — the paper's "secure channel".
func (s *Service) Extract(ctx context.Context, req *wire.ExtractRequest) (*wire.ExtractResponse, error) {
	if req == nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "empty extract"}
	}
	tk, err := s.openSession(ctx, req.RC, req.TicketBlob, req.Authenticator)
	if err != nil {
		return nil, err
	}
	// Authorize the whole request, in order, before any secret arithmetic:
	// an ungranted AID or a malformed nonce at item k is refused without
	// the k extractions ahead of it.
	identities := make([][]byte, len(req.Items))
	for i, item := range req.Items {
		a, ok := tk.AttributeByAID(attr.ID(item.AID))
		if !ok {
			// The RC asked for an AID its ticket does not grant.
			return nil, &wire.ErrorMsg{Code: wire.CodeAuth, Message: fmt.Sprintf("AID %d not granted", item.AID)}
		}
		nonce, err := attr.NonceFromBytes(item.Nonce)
		if err != nil {
			return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: err.Error()}
		}
		identities[i] = attr.Identity(a, nonce)
	}

	extractCtx, extSp := obsv.StartSpan(ctx, "ibe.extract")
	extSp.SetAttr("items", fmt.Sprintf("%d", len(req.Items)))
	extSp.SetAttr("workers", fmt.Sprintf("%d", fanout.Workers(len(identities))))
	defer extSp.End()
	// Each extraction is a hash-to-point and a secret scalar
	// multiplication in G1, independent of the others, so they spread
	// across the host's cores; the request deadline is honored between
	// items so a huge batch cannot pin the server past its budget.
	resp := &wire.ExtractResponse{SealedKeys: make([][]byte, len(identities))}
	err = fanout.Each(extractCtx, len(identities), func(_ context.Context, i int) error {
		sk, err := s.master.Extract(s.params, identities[i])
		if err != nil {
			s.cfg.Logger.Error("keyserver: extract", "err", err)
			return &wire.ErrorMsg{Code: wire.CodeInternal, Message: "extract failure"}
		}
		resp.SealedKeys[i], err = ticket.SealExtractedKey(tk.SessionKey, bfibe.MarshalPrivateKey(s.params, sk))
		if err != nil {
			return &wire.ErrorMsg{Code: wire.CodeInternal, Message: "seal failure"}
		}
		return nil
	})
	if err != nil {
		extSp.SetErr(err)
		if em := wire.CtxErr(ctx); em != nil {
			return nil, em
		}
		return nil, err
	}
	s.cfg.Logger.Debug("keyserver: extract", "rc", req.RC, "keys", len(req.Items))
	return resp, nil
}

// Trapdoor serves a PEKS keyword-trapdoor request (searchable encryption,
// related work [1]): same session discipline as Extract, with the keyword
// and the returned trapdoor both sealed under the RC–PKG session key so
// the search term never travels in the clear.
func (s *Service) Trapdoor(ctx context.Context, req *wire.TrapdoorRequest) (*wire.TrapdoorResponse, error) {
	if req == nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "empty trapdoor request"}
	}
	if em := wire.CtxErr(ctx); em != nil {
		return nil, em
	}
	tk, err := s.openSession(ctx, req.RC, req.TicketBlob, req.Authenticator)
	if err != nil {
		return nil, err
	}
	kw, err := ticket.OpenTrapdoorPayload(tk.SessionKey, req.SealedKeyword)
	if err != nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "malformed keyword"}
	}
	td, err := peks.NewTrapdoor(s.params, s.master, string(kw))
	if err != nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	sealed, err := ticket.SealTrapdoorPayload(tk.SessionKey, peks.MarshalTrapdoor(s.params, td))
	if err != nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeInternal, Message: "seal failure"}
	}
	s.cfg.Logger.Debug("keyserver: trapdoor issued", "rc", req.RC)
	return &wire.TrapdoorResponse{SealedTrapdoor: sealed}, nil
}

// Handle dispatches one frame through the pipeline, making *Service a
// wire.Handler.
func (s *Service) Handle(ctx context.Context, f wire.Frame) wire.Frame {
	return s.router.Handle(ctx, f)
}

// StatsRegistry exposes the live registry: per-op request and error
// counts and latency distributions keyed by request frame type name, and
// the service's labeled counters and gauges.
func (s *Service) StatsRegistry() *obsv.Registry { return s.stats }

// ListenAndServe starts a wire server for the PKG.
func (s *Service) ListenAndServe(addr string, opts ...wire.ServerOption) (*wire.Server, net.Addr, error) {
	srv := wire.NewServer(s.router, s.cfg.Logger, opts...)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, nil, err
	}
	return srv, bound, nil
}
