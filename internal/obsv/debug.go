package obsv

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// DebugHandler builds the opt-in operational debug surface the daemons
// expose behind -debug-addr:
//
//	/metrics             Prometheus text: per-op series + stage counters
//	/healthz             liveness probe
//	/traces              recent finished spans as JSON (?trace=<id> filters)
//	/debug/pprof/...     standard Go profiling endpoints
//
// The listener this handler is mounted on should default to localhost:
// it exposes latency distributions, identities in span attributes, and
// CPU profiles — operational data, not public API (DESIGN.md §10).
func DebugHandler(service string, reg *Registry, tracer *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, service, Collect(reg))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		var traceID uint64
		if q := r.URL.Query().Get("trace"); q != "" {
			// Trace IDs render in decimal everywhere (slog, JSON); parse
			// the same way.
			var err error
			if traceID, err = strconv.ParseUint(q, 10, 64); err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
		}
		recs := tracer.Snapshot(0, traceID)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(tracesDoc{Service: service, Count: len(recs), Spans: recs})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// tracesDoc is the /traces JSON envelope.
type tracesDoc struct {
	Service string       `json:"service"`
	Count   int          `json:"count"`
	Spans   []SpanRecord `json:"spans"`
}

// ServeDebug starts an HTTP debug server on addr in a background
// goroutine and returns it plus the bound address; the caller owns
// Shutdown/Close. Used by mwsd/pkgd when -debug-addr is set.
func ServeDebug(addr, service string, reg *Registry, tracer *Tracer) (*http.Server, net.Addr, error) {
	srv := &http.Server{
		Handler:           DebugHandler(service, reg, tracer),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
