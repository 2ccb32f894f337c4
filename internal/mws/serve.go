package mws

import (
	"context"
	"net"

	"mwskit/internal/obsv"
	"mwskit/internal/wire"
)

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
