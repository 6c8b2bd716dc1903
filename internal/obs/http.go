package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"
)

// ServerOptions configures the monitoring endpoint. The zero value
// serves the process-wide defaults with profiling off.
type ServerOptions struct {
	// Reg is the registry /metrics exposes (Default when nil).
	Reg *Registry
	// Tracer supplies the recent-query ring for /debug/queries and the
	// in-flight set for /debug/queries?live=1 (DefaultTracer when nil).
	Tracer *Tracer
	// Health feeds /healthz ("ok" when nil or empty).
	Health func() string
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints expose stacks and should be opted into.
	Pprof bool
	// RuntimeEvery starts a background runtime/metrics sampler at this
	// period (0 = scrape-time sampling only, which OnScrape already
	// provides). The sampler stops with the server.
	RuntimeEvery time.Duration
}

// Handler returns the monitoring mux:
//
//	/metrics          Prometheus text exposition of reg
//	/metrics?exemplars=1   same, with OpenMetrics exemplars on histogram buckets
//	/debug/queries    the recent-query ring buffer as JSON, newest first
//	/debug/queries?live=1  in-flight queries: phase, elapsed, rows, governor bytes
//	/debug/pprof/*    net/http/pprof (only with ServerOptions.Pprof)
//	/healthz          health: {"status":"ok|degraded|draining", ...}
//
// reg and ring default to the process-wide Default registry and the
// DefaultTracer's ring when nil. An optional health callback supplies
// the /healthz status ("ok" when absent or nil): "ok" and "degraded"
// answer 200 (degraded = serving but shedding load), "draining" answers
// 503 so load balancers stop routing to a server that is shutting down.
func Handler(reg *Registry, ring *Recent, health ...func() string) http.Handler {
	o := ServerOptions{Reg: reg}
	if len(health) > 0 {
		o.Health = health[0]
	}
	return buildMux(o, ring)
}

// HandlerOpts is Handler driven by ServerOptions: it adds the pprof
// mount (when o.Pprof) and serves ?live=1 from o.Tracer's in-flight set.
func HandlerOpts(o ServerOptions) http.Handler {
	return buildMux(o, nil)
}

// buildMux assembles the monitoring mux. ring overrides the tracer's
// ring when non-nil (the legacy Handler signature).
func buildMux(o ServerOptions, ring *Recent) http.Handler {
	reg := o.Reg
	if reg == nil {
		reg = Default
	}
	tracer := o.Tracer
	if tracer == nil {
		tracer = DefaultTracer
	}
	if ring == nil {
		ring = tracer.Ring()
	}
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("exemplars") == "1" {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			reg.WriteExemplars(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Query().Get("live") == "1" {
			json.NewEncoder(w).Encode(tracer.Active())
			return
		}
		json.NewEncoder(w).Encode(ring.Snapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		status := "ok"
		if o.Health != nil {
			if s := o.Health(); s != "" {
				status = s
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if status == "draining" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, "{\"status\":%q,\"uptime_seconds\":%.0f,\"queries_completed\":%d}\n",
			status, time.Since(start).Seconds(), QueriesCompleted.Value())
	})
	if o.Pprof {
		// The explicit registrations (not _ "net/http/pprof") keep the
		// profiling endpoints off http.DefaultServeMux and behind config.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Server is a monitoring HTTP server bound to a live listener; Addr
// reports the resolved address (useful with ":0"), Close shuts it down.
type Server struct {
	ln      net.Listener
	srv     *http.Server
	sampler *RuntimeSampler
	closed  atomic.Bool
	done    chan struct{} // closed when Serve has returned
}

// CloseDrainTimeout bounds how long Close waits for in-flight handlers
// before forcing connections shut.
const CloseDrainTimeout = 2 * time.Second

// StartServer binds addr and serves Handler(reg, ring, health...) on it
// in a background goroutine. Pass nil for the process-wide defaults; an
// optional health callback feeds /healthz.
func StartServer(addr string, reg *Registry, ring *Recent, health ...func() string) (*Server, error) {
	return startServer(addr, Handler(reg, ring, health...), 0)
}

// StartServerOpts binds addr and serves HandlerOpts(o) on it in a
// background goroutine. When o.RuntimeEvery > 0 a background
// runtime/metrics sampler runs for the server's lifetime.
func StartServerOpts(addr string, o ServerOptions) (*Server, error) {
	return startServer(addr, HandlerOpts(o), o.RuntimeEvery)
}

func startServer(addr string, h http.Handler, runtimeEvery time.Duration) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h}, done: make(chan struct{})}
	if runtimeEvery > 0 {
		s.sampler = StartRuntimeSampler(runtimeEvery)
	}
	go func() {
		s.srv.Serve(ln) // returns ErrServerClosed on Close
		close(s.done)
	}()
	return s, nil
}

// Addr returns the listener's resolved address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down: the listener closes immediately (so the
// address can be rebound — a monitoring server restarted on one
// address must not leak the first listener) and in-flight handlers get CloseDrainTimeout to
// finish before their connections are forced shut. Any background
// runtime sampler stops with the server. Idempotent and nil-safe;
// concurrent and repeated calls return nil without waiting twice.
func (s *Server) Close() error {
	if s == nil || s.closed.Swap(true) {
		return nil
	}
	s.sampler.Close()
	ctx, cancel := context.WithTimeout(context.Background(), CloseDrainTimeout)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Drain timed out (or the context failed): force-close whatever
		// is still open so nothing leaks.
		if cerr := s.srv.Close(); err == context.DeadlineExceeded && cerr != nil {
			err = cerr
		}
	}
	<-s.done // Serve has returned; the accept goroutine is gone
	return err
}
