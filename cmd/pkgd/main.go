// Command pkgd runs the Private Key Generator: it performs IBE Setup on
// first start (persisting the master secret under -dir), publishes the
// public parameters, and serves ticket-authenticated key-extraction
// requests.
//
//	pkgd -dir /var/lib/pkg -addr :7702 -shared-key-file mws-pkg.key -preset bf80
//
// The shared-key file must contain the same 32-byte hex key mwsd uses.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mwskit/internal/keyserver"
	"mwskit/internal/obsv"
	"mwskit/internal/wire"
)

func main() {
	dir := flag.String("dir", "./pkg-data", "data directory")
	addr := flag.String("addr", "127.0.0.1:7702", "listen address")
	keyFile := flag.String("shared-key-file", "mws-pkg.key", "hex-encoded 32-byte MWS–PKG shared key")
	preset := flag.String("preset", "bf80", "pairing parameter preset: test, bf80, bf112")
	window := flag.Duration("freshness", 2*time.Minute, "accepted timestamp skew")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "disconnect connections idle this long (0 disables)")
	maxConns := flag.Int("max-conns", 4096, "max concurrently served connections (0 = unlimited)")
	statsEvery := flag.Duration("stats-interval", time.Minute, "per-op stats log period (0 disables)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /traces, /healthz, /debug/pprof on this address (empty = disabled; bind localhost — it exposes profiles and span attributes)")
	traceRing := flag.Int("trace-ring", 4096, "finished-span ring capacity for /traces and the TTrace op")
	slowReq := flag.Duration("slow-request", time.Second, "log the span tree of requests slower than this (0 disables)")
	flag.Parse()

	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pkgd:", err)
		os.Exit(1)
	}

	raw, err := os.ReadFile(*keyFile)
	if err != nil {
		die(logger, "shared key", fmt.Errorf("%w (run mwsd first to create it)", err))
	}
	sharedKey, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil || len(sharedKey) != 32 {
		die(logger, "shared key", fmt.Errorf("%s: invalid key material", *keyFile))
	}

	tracer := obsv.NewTracer("pkg", *traceRing, *slowReq, logger)
	svc, err := keyserver.New(keyserver.Config{
		Dir:             *dir,
		Preset:          *preset,
		MWSPKGKey:       sharedKey,
		FreshnessWindow: *window,
		RequestTimeout:  *reqTimeout,
		Logger:          logger,
		Tracer:          tracer,
	})
	if err != nil {
		die(logger, "open service", err)
	}
	defer svc.Close()

	srv, bound, err := svc.ListenAndServe(*addr,
		wire.WithIdleTimeout(*idleTimeout), wire.WithMaxConns(*maxConns))
	if err != nil {
		die(logger, "listen", err)
	}
	logger.Info("serving PKG", "addr", bound.String(), "preset", *preset, "dir", *dir,
		"request_timeout", *reqTimeout, "max_conns", *maxConns)
	if *debugAddr != "" {
		dsrv, dbound, err := obsv.ServeDebug(*debugAddr, "pkg", svc.StatsRegistry(), tracer)
		if err != nil {
			die(logger, "debug listener", err)
		}
		logger.Info("debug listener up", "addr", dbound.String(),
			"endpoints", "/metrics /healthz /traces /debug/pprof")
		defer dsrv.Close()
	}

	stopStats := obsv.LogStats(*statsEvery, logger, "pkg stats", srv.ConnCount, svc.StatsRegistry())

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	stopStats()
	if err := srv.Close(); err != nil {
		die(logger, "shutdown", err)
	}
}

// newLogger builds the daemon-wide structured logger; one -log-level
// flag governs the whole process.
func newLogger(level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q: %w", level, err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// die logs a fatal error through the unified logger and exits non-zero.
func die(logger *slog.Logger, stage string, err error) {
	logger.Error("fatal", "stage", stage, "err", err)
	os.Exit(1)
}
