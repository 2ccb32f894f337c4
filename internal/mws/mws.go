// Package mws implements the Message Warehousing Service: the central
// intermediary of the paper, assembled from the architectural components
// of Figure 3 —
//
//	Smart Device Authenticator (SDA) — MAC-verifies deposits
//	Message Database (MD)            — internal/storage.Provider
//	Message Management System (MMS)  — policy-filtered retrieval
//	Policy Database (PD)             — internal/policy.DB (Table 1)
//	Token Generator (TG)             — internal/ticket
//	User Database (UD)               — internal/userdb
//	Gatekeeper                       — RC authentication front door
//
// The MWS stores only ciphertext: it authenticates devices, enforces the
// identity→attribute policy, and brokers the PKG handshake, but never
// holds key material capable of decrypting a message — the paper's
// end-to-end confidentiality requirement (§III i).
package mws

import (
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/bfibe"
	"mwskit/internal/ibs"
	"mwskit/internal/macauth"
	"mwskit/internal/obsv"
	"mwskit/internal/peks"
	"mwskit/internal/policy"
	"mwskit/internal/policyrule"
	"mwskit/internal/storage"
	"mwskit/internal/ticket"
	"mwskit/internal/userdb"
	"mwskit/internal/wire"
)

// Config parameterizes a Service.
type Config struct {
	// Dir is the root data directory; sub-stores live beneath it.
	Dir string
	// MWSPKGKey is the long-term secret shared with the PKG (32 bytes),
	// used to seal tickets. The paper assumes this key exists (§V.D
	// assumption ii's analogue for the MWS–PKG pair).
	MWSPKGKey []byte
	// FreshnessWindow bounds accepted timestamp skew for deposits and
	// logins (default 2 minutes).
	FreshnessWindow time.Duration
	// RequestTimeout bounds each network request end to end: a handler
	// past the deadline is cut off and the client receives a structured
	// CodeTimeout error frame (0 = no bound).
	RequestTimeout time.Duration
	// Sync selects store durability (default SyncAlways).
	Sync storage.SyncPolicy
	// Storage tunes the persistence layer (zero value: 8 shards, or what
	// the directory was created with).
	// Storage.Metrics defaults to the service's own registry, so shard
	// series appear on the debug listener without extra wiring.
	Storage storage.Options
	// Rand is the entropy source (default crypto/rand via attr.RandReader).
	Rand io.Reader
	// Now is the clock, swappable in tests (default time.Now).
	Now func() time.Time
	// Logger receives operational logs (nil discards).
	Logger *slog.Logger
	// Tracer, when set, records per-stage spans for every request and
	// serves them over the TTrace op; nil disables tracing at zero cost.
	Tracer *obsv.Tracer
	// IBEParams, when set, enables the AuthModeIBS deposit path (§VIII
	// future work): devices authenticate with identity-based signatures
	// verified against these public parameters instead of shared MAC
	// keys. Without it, IBS deposits are rejected.
	IBEParams *bfibe.Params
	// Rules is an optional XACML-style rule layer (§VIII) evaluated on
	// top of the Table 1 grants at retrieval time; nil permits all.
	Rules *policyrule.Set
}

// Service is the running MWS. All methods are safe for concurrent use.
type Service struct {
	cfg Config

	devices  *macauth.KeyService
	replay   *macauth.ReplayGuard
	rcReplay *macauth.ReplayGuard
	messages storage.Provider
	policies *policy.DB
	users    *userdb.DB

	rulesMu sync.RWMutex
	rules   *policyrule.Set

	compactMu   sync.Mutex
	compactStop chan struct{}
	compactDone chan struct{}

	stats  *obsv.Registry
	router *wire.Router

	// Keyword-search series: tags tested per search is
	// peks_tags_tested / peks_searches, and a search that matched nothing
	// because its corpus would not decode shows in peks_tags_undecodable.
	searches, tagsTested, tagsUndecodable *obsv.Counter
}

// New opens (or creates) an MWS instance rooted at cfg.Dir.
func New(cfg Config) (*Service, error) {
	if cfg.Dir == "" {
		return nil, errors.New("mws: Dir is required")
	}
	if len(cfg.MWSPKGKey) != 32 {
		return nil, errors.New("mws: MWSPKGKey must be 32 bytes")
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

	stats := obsv.NewRegistry()
	sopts := cfg.Storage
	if sopts.Metrics == nil {
		sopts.Metrics = stats
	}
	db, err := storage.Open(storage.Config{Dir: cfg.Dir, Sync: cfg.Sync, Options: sopts})
	if err != nil {
		return nil, fmt.Errorf("mws: storage: %w", err)
	}
	// The sub-databases share the provider: each is striped across the
	// same shards as the message database.
	devKV, err := db.KV("devices")
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("mws: device keys: %w", err)
	}
	polKV, err := db.KV("policy")
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("mws: policy db: %w", err)
	}
	userKV, err := db.KV("users")
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("mws: user db: %w", err)
	}
	policies, err := policy.New(polKV)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("mws: policy db: %w", err)
	}
	rules := cfg.Rules
	if rules == nil {
		rules = policyrule.PermitAll()
	}
	s := &Service{
		cfg:      cfg,
		devices:  macauth.NewKeyService(devKV),
		replay:   macauth.NewReplayGuard(cfg.FreshnessWindow),
		rcReplay: macauth.NewReplayGuard(cfg.FreshnessWindow),
		messages: db,
		policies: policies,
		users:    userdb.New(userKV),
		rules:    rules,
		stats:    stats,

		searches:        stats.Counter("peks_searches"),
		tagsTested:      stats.Counter("peks_tags_tested"),
		tagsUndecodable: stats.Counter("peks_tags_undecodable"),
	}
	for guard, g := range map[string]*macauth.ReplayGuard{"deposit": s.replay, "retrieve": s.rcReplay} {
		stats.GaugeFunc("replay_guard_entries", func() int64 { return int64(g.Len()) }, obsv.L("guard", guard))
	}
	s.router = s.buildRouter()
	return s, nil
}

// anyTagMatches tests a message's PEKS tags against a search's trapdoor.
// UnmarshalTag is where a stored tag's point is curve- and order-checked,
// once, before it meets the trapdoor. Undecodable tags are counted and
// skipped rather than failing the whole retrieval; only counts leave this
// function, never tag bytes.
func (s *Service) anyTagMatches(tags [][]byte, t *peks.Tester) bool {
	for _, raw := range tags {
		tag, err := peks.UnmarshalTag(s.cfg.IBEParams, raw)
		if err != nil {
			s.tagsUndecodable.Inc()
			continue
		}
		s.tagsTested.Inc()
		if t.Test(tag) {
			return true
		}
	}
	return false
}

// Close releases all stores. The storage provider owns every underlying
// database, so closing it closes the device-key, policy, and user stores
// too.
func (s *Service) Close() error {
	s.stopAutoCompact()
	return s.messages.Close()
}

// --- administration (the paper's "administrative operations to manage
// client identities", §I) ---

// RegisterDevice enrolls a smart device and returns its MAC key for
// out-of-band delivery.
func (s *Service) RegisterDevice(deviceID string) ([]byte, error) {
	return s.devices.Register(deviceID, s.cfg.Rand)
}

// RevokeDevice removes a device's MAC key; its future deposits fail.
func (s *Service) RevokeDevice(deviceID string) error {
	return s.devices.Revoke(deviceID)
}

// RegisterClient enrolls a retrieving client with its password and
// token-wrapping public key.
func (s *Service) RegisterClient(id string, password []byte, pub *rsa.PublicKey) error {
	return s.users.Register(id, password, pub)
}

// Grant gives a client access to an attribute, returning the grant's AID.
func (s *Service) Grant(clientID string, a attr.Attribute) (attr.ID, error) {
	if !s.users.Exists(clientID) {
		return 0, fmt.Errorf("mws: unknown client %q", clientID)
	}
	return s.policies.Grant(clientID, a)
}

// Revoke removes a client's access to an attribute (§III iii).
func (s *Service) Revoke(clientID string, a attr.Attribute) error {
	return s.policies.Revoke(clientID, a)
}

// RevokeAllAccess removes every grant a client holds.
func (s *Service) RevokeAllAccess(clientID string) error {
	return s.policies.RevokeAll(clientID)
}

// SetRules replaces the XACML-style rule layer at runtime (an
// administrative operation; takes effect on the next retrieval).
func (s *Service) SetRules(set *policyrule.Set) error {
	if set == nil {
		set = policyrule.PermitAll()
	}
	if err := set.Validate(); err != nil {
		return err
	}
	s.rulesMu.Lock()
	s.rules = set
	s.rulesMu.Unlock()
	return nil
}

// Rules returns the active rule layer.
func (s *Service) Rules() *policyrule.Set {
	s.rulesMu.RLock()
	defer s.rulesMu.RUnlock()
	return s.rules
}

// PolicyTable returns the current Table 1 rows.
func (s *Service) PolicyTable() []attr.Binding { return s.policies.Table() }

// MessageCount reports the number of warehoused messages.
func (s *Service) MessageCount() int { return s.messages.Count() }

// Store exposes the storage provider (shard stats, explicit compaction) —
// read-only use; the service owns its lifecycle.
func (s *Service) Store() storage.Provider { return s.messages }

// CompactStores compacts every KV database whose mutation log has
// outgrown its live data (see storage.Provider.Compact), bumping the
// store_compactions counter per compacted store.
func (s *Service) CompactStores(minMutations uint64) (int, error) {
	n, err := s.messages.Compact(minMutations)
	if n > 0 {
		obsv.AddStoreCompactions(n)
		s.cfg.Logger.Info("mws: compacted stores", "stores", n)
	}
	return n, err
}

// StartAutoCompact launches the background compaction sweep: every
// interval, KV stores past the mutation threshold are rewritten. A second
// call replaces the previous schedule; Close stops it.
func (s *Service) StartAutoCompact(interval time.Duration, minMutations uint64) {
	if interval <= 0 {
		return
	}
	s.stopAutoCompact()
	stop := make(chan struct{})
	done := make(chan struct{})
	s.compactMu.Lock()
	s.compactStop, s.compactDone = stop, done
	s.compactMu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if _, err := s.CompactStores(minMutations); err != nil {
					s.cfg.Logger.Error("mws: auto-compact", "err", err)
				}
			}
		}
	}()
}

// stopAutoCompact halts the background sweep and waits for an in-flight
// pass to finish, so Close never races a compaction against store
// teardown.
func (s *Service) stopAutoCompact() {
	s.compactMu.Lock()
	stop, done := s.compactStop, s.compactDone
	s.compactStop, s.compactDone = nil, nil
	s.compactMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// --- SDA: the SD–MWS phase ---

// Deposit validates and stores a smart-device message: MAC check against
// the device's shared key, freshness + replay check on (MAC, T), then
// durable append to the message database. This is the paper's SD
// Authenticator behaviour: unauthenticated messages are discarded (§V.B).
func (s *Service) Deposit(ctx context.Context, req *wire.DepositRequest) (uint64, error) {
	if req == nil {
		return 0, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "empty deposit"}
	}
	if em := wire.CtxErr(ctx); em != nil {
		return 0, em
	}
	a := attr.Attribute(req.Attribute)
	if err := a.Validate(); err != nil {
		return 0, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	nonce, err := attr.NonceFromBytes(req.Nonce)
	if err != nil {
		return 0, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: err.Error()}
	}
	_, authSp := obsv.StartSpan(ctx, "auth")
	authSp.SetAttr("device", req.DeviceID)
	authErr := func() *wire.ErrorMsg {
		switch req.AuthMode {
		case wire.AuthModeMAC:
			key, ok := s.devices.Key(req.DeviceID)
			if !ok {
				// Same error as a bad MAC: do not reveal which devices exist.
				return &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
			}
			if !macauth.Verify(key, req.MAC, req.MACParts()...) {
				return &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
			}
		case wire.AuthModeIBS:
			if s.cfg.IBEParams == nil {
				return &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "IBS deposits not enabled"}
			}
			sig, err := ibs.Unmarshal(s.cfg.IBEParams, req.MAC)
			if err != nil {
				return &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
			}
			if !ibs.Verify(s.cfg.IBEParams, ibs.DeviceIdentity(req.DeviceID), req.AuthBytes(), sig) {
				return &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
			}
		default:
			return &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "unknown auth mode"}
		}
		return nil
	}()
	if authErr != nil {
		authSp.SetErr(authErr)
		authSp.End()
		return 0, authErr
	}
	authSp.End()
	now := s.cfg.Now()
	_, replaySp := obsv.StartSpan(ctx, "replay")
	if err := s.replay.Check(req.MAC, time.Unix(req.Timestamp, 0), now); err != nil {
		replaySp.SetErr(err)
		replaySp.End()
		return 0, &wire.ErrorMsg{Code: wire.CodeReplay, Message: err.Error()}
	}
	replaySp.End()
	if len(req.Tags) > wire.MaxTags {
		return 0, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "too many keyword tags"}
	}
	// Deadline checkpoint before the durable write: a timed-out deposit
	// must not be stored after its client has already seen the failure.
	if em := wire.CtxErr(ctx); em != nil {
		return 0, em
	}
	storeCtx, storeSp := obsv.StartSpan(ctx, "store.write")
	storeSp.SetAttr("shard", strconv.Itoa(s.messages.ShardOf(a)))
	seq, err := s.messages.Append(storeCtx, &storage.Message{
		DeviceID:   req.DeviceID,
		Attribute:  a,
		Nonce:      nonce,
		U:          req.U,
		Ciphertext: req.Ciphertext,
		Scheme:     req.Scheme,
		Timestamp:  req.Timestamp,
		Tags:       req.Tags,
	})
	storeSp.SetErr(err)
	storeSp.End()
	if err != nil {
		s.cfg.Logger.Error("mws: deposit store", "err", err)
		return 0, &wire.ErrorMsg{Code: wire.CodeInternal, Message: "store failure"}
	}
	s.cfg.Logger.Debug("mws: deposit", "device", req.DeviceID, "attr", string(a), "seq", seq)
	return seq, nil
}

// --- Gatekeeper + MMS + TG: the MWS–RC phase ---

// Retrieve authenticates an RC and returns its pending messages plus a
// fresh PKG token. Message attributes are translated to the RC's own
// AIDs; the attribute strings never leave the MWS (§V.D).
func (s *Service) Retrieve(ctx context.Context, req *wire.RetrieveRequest) (*wire.RetrieveResponse, error) {
	if req == nil {
		return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "empty retrieve"}
	}
	if em := wire.CtxErr(ctx); em != nil {
		return nil, em
	}
	now := s.cfg.Now()

	// Gatekeeper: authenticate against the credential key.
	_, authSp := obsv.StartSpan(ctx, "auth")
	authSp.SetAttr("rc", req.RC)
	cred, ok := s.users.Credential(req.RC)
	if !ok {
		authSp.End()
		return nil, &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
	}
	auth, err := ticket.OpenAuthenticator(cred, req.AuthBlob, now, s.cfg.FreshnessWindow)
	if err != nil {
		authSp.SetErr(err)
		authSp.End()
		return nil, &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
	}
	if auth.RC != req.RC {
		authSp.End()
		return nil, &wire.ErrorMsg{Code: wire.CodeAuth, Message: "authentication failed"}
	}
	if err := s.rcReplay.Check(req.AuthBlob, auth.Timestamp, now); err != nil {
		authSp.SetErr(err)
		authSp.End()
		return nil, &wire.ErrorMsg{Code: wire.CodeReplay, Message: err.Error()}
	}
	authSp.End()

	// MMS: policy lookup (Table 1 grants filtered through the rule
	// layer) and message fetch.
	_, polSp := obsv.StartSpan(ctx, "policy")
	rules := s.Rules()
	allBindings := s.policies.BindingsFor(req.RC)
	bindings := allBindings[:0:0]
	for _, b := range allBindings {
		if rules.Evaluate(req.RC, string(b.Attribute), now) == policyrule.Permit {
			bindings = append(bindings, b)
		}
	}
	aidByAttr := make(map[attr.Attribute]attr.ID, len(bindings))
	set := make(attr.Set, 0, len(bindings))
	for _, b := range bindings {
		aidByAttr[b.Attribute] = b.AID
		set = append(set, b.Attribute)
	}
	polSp.End()
	// Keyword search (related work [1]): with a trapdoor present, keep
	// only messages carrying a matching PEKS tag. Fetch unlimited and
	// apply the limit after filtering so matches are not starved.
	fetchLimit := int(req.Limit)
	if len(req.Trapdoor) > 0 {
		fetchLimit = 0
	}
	_, fetchSp := obsv.StartSpan(ctx, "store.read")
	msgs := s.messages.ScanAttributes(set, req.FromSeq, fetchLimit)
	fetchSp.SetAttr("messages", fmt.Sprintf("%d", len(msgs)))
	fetchSp.End()
	if len(req.Trapdoor) > 0 {
		if s.cfg.IBEParams == nil {
			return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "keyword search not enabled"}
		}
		_, peksSp := obsv.StartSpan(ctx, "peks.filter")
		// One Tester per search: the trapdoor is validated and its pairing
		// lines are built here, not once per stored tag.
		td, err := peks.UnmarshalTrapdoor(s.cfg.IBEParams, req.Trapdoor)
		var tester *peks.Tester
		if err == nil {
			tester, err = peks.NewTester(s.cfg.IBEParams, td)
		}
		if err != nil {
			peksSp.SetErr(err)
			peksSp.End()
			return nil, &wire.ErrorMsg{Code: wire.CodeBadRequest, Message: "malformed trapdoor"}
		}
		s.searches.Inc()
		filtered := msgs[:0:0]
		for _, m := range msgs {
			// Each tag test costs a pairing; honor the request deadline
			// between messages so a huge backlog cannot pin the server.
			if em := wire.CtxErr(ctx); em != nil {
				peksSp.End()
				return nil, em
			}
			if s.anyTagMatches(m.Tags, tester) {
				filtered = append(filtered, m)
				if req.Limit > 0 && len(filtered) == int(req.Limit) {
					break
				}
			}
		}
		msgs = filtered
		peksSp.SetAttr("matches", fmt.Sprintf("%d", len(msgs)))
		peksSp.End()
	}
	items := make([]wire.MessageItem, len(msgs))
	for i, m := range msgs {
		items[i] = wire.MessageItem{
			Seq:        m.Seq,
			AID:        uint64(aidByAttr[m.Attribute]),
			Nonce:      m.Nonce[:],
			U:          m.U,
			Ciphertext: m.Ciphertext,
			Scheme:     m.Scheme,
			DeviceID:   m.DeviceID,
			Timestamp:  m.Timestamp,
		}
	}

	// TG: mint the RC–PKG session key, seal the ticket, wrap the token.
	if em := wire.CtxErr(ctx); em != nil {
		return nil, em
	}
	_, sealSp := obsv.StartSpan(ctx, "ticket.seal")
	sessionKey, err := ticket.NewSessionKey(s.cfg.Rand)
	if err != nil {
		sealSp.SetErr(err)
		sealSp.End()
		return nil, &wire.ErrorMsg{Code: wire.CodeInternal, Message: "session key"}
	}
	tk := &ticket.Ticket{
		RC:         req.RC,
		Bindings:   bindings,
		SessionKey: sessionKey,
		IssuedAt:   now.Unix(),
	}
	ticketBlob, err := tk.Seal(s.cfg.MWSPKGKey)
	if err != nil {
		sealSp.SetErr(err)
		sealSp.End()
		s.cfg.Logger.Error("mws: ticket seal", "err", err)
		return nil, &wire.ErrorMsg{Code: wire.CodeInternal, Message: "ticket"}
	}
	pub, err := s.users.PublicKey(req.RC)
	if err != nil {
		sealSp.SetErr(err)
		sealSp.End()
		return nil, &wire.ErrorMsg{Code: wire.CodeInternal, Message: "client key"}
	}
	tokenBlob, err := ticket.SealToken(s.cfg.Rand, pub, &ticket.Token{
		SessionKey: sessionKey,
		TicketBlob: ticketBlob,
	})
	sealSp.SetErr(err)
	sealSp.End()
	if err != nil {
		s.cfg.Logger.Error("mws: token seal", "err", err)
		return nil, &wire.ErrorMsg{Code: wire.CodeInternal, Message: "token"}
	}
	s.cfg.Logger.Debug("mws: retrieve", "rc", req.RC, "messages", len(items))
	return &wire.RetrieveResponse{TokenBlob: tokenBlob, Items: items}, nil
}
