package mws

import (
	"context"
	"net"

	"mwskit/internal/obsv"
	"mwskit/internal/wire"
)

// buildRouter assembles the service's request pipeline. Every route runs
// under the same middleware stack — tracing outermost (so the request
// span covers the whole pipeline), then instrumentation (so it observes
// timeouts too), then the request deadline, then panic recovery closest
// to the handler. Both the SD-facing and RC-facing operations share one
// endpoint; the paper runs them as two servers (MWS-SD, MWS-Client), and
// cmd/mwsd can bind two listeners to the same Service to mirror that.
func (s *Service) buildRouter() *wire.Router {
	r := wire.NewRouter()
	r.Use(
		wire.Trace(s.cfg.Tracer),
		wire.Instrument(s.stats),
		wire.WithTimeout(s.cfg.RequestTimeout),
		wire.Recover(s.cfg.Logger),
	)
	wire.RegisterPing(r)
	wire.Route(r, wire.OpDeposit, func(ctx context.Context, req *wire.DepositRequest) (*wire.DepositResponse, error) {
		seq, err := s.Deposit(ctx, req)
		if err != nil {
			return nil, err
		}
		return &wire.DepositResponse{Seq: seq}, nil
	})
	wire.Route(r, wire.OpRetrieve, s.Retrieve)
	wire.RegisterStats(r, s.stats)
	wire.RegisterTrace(r, s.cfg.Tracer)
	return r
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

// ListenAndServe starts a wire server for this service on addr and
// returns it along with the bound address.
func (s *Service) ListenAndServe(addr string, opts ...wire.ServerOption) (*wire.Server, net.Addr, error) {
	srv := wire.NewServer(s.router, s.cfg.Logger, opts...)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, nil, err
	}
	return srv, bound, nil
}
