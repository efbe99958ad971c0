// Package daemon is the process lifecycle shared by the long-lived
// commands (capd, capring, consentd, analyzed, obsd, fleetd): telemetry
// construction, the outer mux that keeps scrapes and profiles outside
// any load-shedding limiter, listening, serving with slow-loris
// timeouts, and a drain on SIGINT/SIGTERM that returns to the caller —
// so main's deferred closes run on every exit path — instead of
// exiting from inside the serve loop.
package daemon

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
)

// Daemon is one process's telemetry and HTTP surface.
type Daemon struct {
	// Registry and Tracer are nil when the corresponding telemetry is
	// off; every consumer in the tree accepts nil as "not recording".
	Registry *obs.Registry
	Tracer   *obs.Tracer

	mux *http.ServeMux
	ln  net.Listener
}

// New builds the telemetry for a daemon in the given role. With
// metrics on it gets a registry, served on /metrics and /metrics.json;
// with tracing on it gets a tracer named for the role, registered in
// the registry and — when metrics are on too — served with pprof under
// /debug/.
func New(role string, metrics, tracing bool) *Daemon {
	d := &Daemon{mux: http.NewServeMux()}
	if metrics {
		d.Registry = obs.NewRegistry()
	}
	if tracing {
		// Service is the role, never a per-process identity, so span
		// exports stay byte-identical across node and worker counts.
		d.Tracer = obs.NewTracer(obs.TracerConfig{Service: role})
		d.Tracer.RegisterMetrics(d.Registry)
	}
	if metrics {
		debug := obs.Handler(d.Registry, d.Tracer)
		d.mux.Handle("/metrics", debug)
		d.mux.Handle("/metrics.json", debug)
		if tracing {
			d.mux.Handle("/debug/", debug)
		}
	}
	return d
}

// Handle mounts h on the outer mux, beside the telemetry endpoints:
// whatever limiter h carries inside does not shed scrapes, probes or
// admin triggers mounted next to it.
func (d *Daemon) Handle(pattern string, h http.Handler) { d.mux.Handle(pattern, h) }

// Listen binds addr and returns the bound address for the banner.
func (d *Daemon) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d.ln = ln
	return ln.Addr(), nil
}

// Serve serves the mux on the listener until SIGINT/SIGTERM, a serve
// error, or done closing (nil never does). It then runs the drain
// hooks in order, shuts the server down with a 5 s grace, and returns
// the serve error, else the shutdown error, else nil.
func (d *Daemon) Serve(done <-chan struct{}, drain ...func()) error {
	srv := &http.Server{
		Handler: d.mux,
		// Slow-loris protection: a client must finish its headers
		// promptly and keep-alive connections cannot idle forever.
		// WriteTimeout stays unset: query endpoints legitimately stream
		// for as long as their per-request context allows.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(d.ln) }()
	var err error
	select {
	case err = <-errc:
	case <-ctx.Done():
	case <-done:
	}
	for _, fn := range drain {
		fn()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := srv.Shutdown(shutdownCtx); serr != nil && err == nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	return err
}
