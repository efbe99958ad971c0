package replica

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
)

// TestWaitConvergedWakesOnDelivery: WaitConverged looks again when a
// sender finishes a delivery, so it returns once the last one lands,
// reports a timeout as before while one is held back, and gives up when
// the writer closes. No step of it waits on the test's clock.
func TestWaitConvergedWakesOnDelivery(t *testing.T) {
	release := make(chan struct{})
	c := newWrappedCluster(t, 2, 2, nil, func(name string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/ingest" {
				<-release
			}
			h.ServeHTTP(w, r)
		})
	})
	caps := []*capture.Capture{mkCapture(0), mkCapture(1), mkCapture(2)}
	b, err := capstore.BatchOf(caps)
	if err != nil {
		t.Fatal(err)
	}
	// Commit without waiting for the quorum: both nodes' deliveries are
	// held at their doors.
	if _, _, err := c.w.place(b); err != nil {
		t.Fatal(err)
	}
	if err := c.w.WaitConverged(time.Millisecond); err == nil {
		t.Fatal("converged while every delivery was held back")
	}
	done := make(chan error, 1)
	go func() { done <- c.w.WaitConverged(time.Hour) }()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("after the deliveries landed: %v", err)
	}

	// A wait the writer's Close ends returns ErrClosed, not a timeout an
	// hour later.
	held := make(chan struct{})
	c2 := newWrappedCluster(t, 2, 2, nil, func(name string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/ingest" {
				<-held
			}
			h.ServeHTTP(w, r)
		})
	})
	defer close(held)
	if _, _, err := c2.w.place(b); err != nil {
		t.Fatal(err)
	}
	go func() { done <- c2.w.WaitConverged(time.Hour) }()
	go c2.w.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("wait across Close: %v, want ErrClosed", err)
	}
}

// TestConvergedReadsNoManifest: a look at converged nodes compares
// record counts from /stats and fetches no /manifest, which would hash
// every tail of every node.
func TestConvergedReadsNoManifest(t *testing.T) {
	var mu sync.Mutex
	paths := map[string]int{}
	c := newWrappedCluster(t, 3, 4, nil, func(name string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			paths[r.URL.Path]++
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
	})
	var caps []*capture.Capture
	for i := 0; i < 24; i++ {
		caps = append(caps, mkCapture(i))
	}
	if _, err := c.w.RecordBatch(caps); err != nil {
		t.Fatal(err)
	}
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ok, err := c.w.Converged()
	if err != nil || !ok {
		t.Fatalf("Converged after WaitConverged: %v, %v", ok, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if paths["/manifest"] != 0 {
		t.Errorf("convergence looks fetched /manifest %d times, want 0 (requests by path: %v)", paths["/manifest"], paths)
	}
	if paths["/stats"] < 3 {
		t.Errorf("a converged look read /stats %d times, want one per node (requests by path: %v)", paths["/stats"], paths)
	}
}

// TestCloseDropsIdleConnections: the node clients share the storage
// transport, whose idle connections http.DefaultTransport's
// CloseIdleConnections does not reach, so Close closes them: a node
// the writer pushed to sees every connection closed once it returns.
func TestCloseDropsIdleConnections(t *testing.T) {
	store, err := capstore.Create(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ing, err := capstore.NewIngester(store, capstore.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/ingest", ing)
	mux.Handle("/", capstore.NewResilientHandler(store, capstore.ServeConfig{}))
	srv := httptest.NewUnstartedServer(mux)
	var mu sync.Mutex
	open := 0
	allClosed := make(chan struct{})
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch s {
		case http.StateNew:
			open++
		case http.StateClosed, http.StateHijacked:
			if open--; open == 0 {
				close(allClosed)
			}
		}
	}
	srv.Start()
	defer srv.Close()

	w, err := NewWriter(Config{
		Shards:        2,
		Replicas:      1,
		ProbeInterval: time.Hour,
		Nodes:         []NodeConfig{{Name: "node-0", URL: srv.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RecordBatch([]*capture.Capture{mkCapture(0), mkCapture(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-allClosed:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("%d connections still open after Close", open)
	}
}
