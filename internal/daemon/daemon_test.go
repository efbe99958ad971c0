package daemon

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

// listen binds d to an ephemeral port and returns its base URL.
func listen(t *testing.T, d *Daemon) string {
	t.Helper()
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return "http://" + addr.String()
}

func status(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeFailureStillClosesResources is the daemons' exit-path bug:
// their mains used to os.Exit from inside the serve select, skipping
// every deferred close (capd's store, capring's handoff logs, fleetd's
// checkpoint log). Serve must instead return the error to a main-shaped
// caller whose defers then run, after the drain hooks.
func TestServeFailureStillClosesResources(t *testing.T) {
	var events []string
	run := func() error {
		events = append(events, "open store")
		defer func() { events = append(events, "close store") }()
		d := New("capd", true, true)
		listen(t, d)
		d.ln.Close() // the accept loop fails on its first call
		return d.Serve(nil, func() { events = append(events, "drain hook") })
	}
	err := run()
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Serve on a dead listener returned %v, want its accept error", err)
	}
	if want := []string{"open store", "drain hook", "close store"}; !slices.Equal(events, want) {
		t.Fatalf("exit path ran %q, want %q", events, want)
	}
}

// TestSignalDrain: SIGTERM runs the drain hooks in order while the
// server still answers, then shuts the listener down and returns nil.
func TestSignalDrain(t *testing.T) {
	d := New("capd", true, true)
	d.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "inner")
	}))
	base := listen(t, d)
	var order []string
	errc := make(chan error, 1)
	go func() {
		errc <- d.Serve(nil,
			func() {
				order = append(order, "first")
				resp, err := http.Get(base + "/healthz")
				if err != nil {
					t.Errorf("server did not answer during drain: %v", err)
					return
				}
				resp.Body.Close()
			},
			func() { order = append(order, "second") })
	}()
	// Serve installs its signal handler before it starts accepting, so
	// an answered request means SIGTERM can no longer kill the test.
	for _, path := range []string{"/", "/metrics", "/metrics.json", "/debug/trace", "/debug/pprof/"} {
		if code := status(t, base+path); code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, code)
		}
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve after SIGTERM returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after SIGTERM")
	}
	if want := []string{"first", "second"}; !slices.Equal(order, want) {
		t.Fatalf("drain hooks ran %q, want %q", order, want)
	}
	if _, err := http.Get(base + "/"); err == nil {
		t.Fatal("listener still accepting after Serve returned")
	}
}

// TestDoneChannelDrains: the caller's done channel (fleetd's drained
// coordinator) stops the daemon exactly like a signal does.
func TestDoneChannelDrains(t *testing.T) {
	d := New("fleetd", false, true)
	listen(t, d)
	done := make(chan struct{})
	close(done)
	drained := false
	if err := d.Serve(done, func() { drained = true }); err != nil || !drained {
		t.Fatalf("Serve = %v, drained = %v; want nil, true", err, drained)
	}
}

// TestTelemetryMounts: the debug surface follows the two switches —
// nothing without metrics (even with a tracer, fleetd -obsd), no
// /debug/ without a tracer (obsd).
func TestTelemetryMounts(t *testing.T) {
	for _, tc := range []struct {
		metrics, tracing bool
		metricsCode      int
		debugCode        int
	}{
		{true, true, http.StatusOK, http.StatusOK},
		{true, false, http.StatusOK, http.StatusNotFound},
		{false, true, http.StatusNotFound, http.StatusNotFound},
		{false, false, http.StatusNotFound, http.StatusNotFound},
	} {
		d := New("role", tc.metrics, tc.tracing)
		if (d.Registry != nil) != tc.metrics || (d.Tracer != nil) != tc.tracing {
			t.Fatalf("New(%v, %v) built registry %v, tracer %v", tc.metrics, tc.tracing, d.Registry != nil, d.Tracer != nil)
		}
		base := listen(t, d)
		done := make(chan struct{})
		errc := make(chan error, 1)
		go func() { errc <- d.Serve(done) }()
		if code := status(t, base+"/metrics"); code != tc.metricsCode {
			t.Errorf("metrics=%v tracing=%v: GET /metrics = %d, want %d", tc.metrics, tc.tracing, code, tc.metricsCode)
		}
		if code := status(t, base+"/debug/trace"); code != tc.debugCode {
			t.Errorf("metrics=%v tracing=%v: GET /debug/trace = %d, want %d", tc.metrics, tc.tracing, code, tc.debugCode)
		}
		close(done)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
