package capstore

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newResilientServer serves a populated store the way cmd/capd does.
func newResilientServer(t *testing.T, n int, cfg ServeConfig) (*Store, *httptest.Server) {
	t.Helper()
	s, err := Create(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, n)
	srv := httptest.NewServer(NewResilientHandler(s, cfg))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func TestHealthz(t *testing.T) {
	s, srv := newResilientServer(t, 120, ServeConfig{MaxInFlight: 7})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		Records  int64  `json:"records"`
		Segments int    `json:"segments"`
		Limiter  struct {
			MaxInFlight int   `json:"max_in_flight"`
			Admitted    int64 `json:"admitted"`
		} `json:"limiter"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Records != int64(s.Len()) || h.Segments != 4 || h.Limiter.MaxInFlight != 7 {
		t.Fatalf("healthz payload %+v", h)
	}

	// Health must reflect served traffic without being load-shed
	// itself: /query admissions show up in the limiter counters.
	resp2, err := http.Get(srv.URL + "/query?domain=site-001.com")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body) //nolint:errcheck
	resp2.Body.Close()
	resp3, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if err := json.NewDecoder(resp3.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Limiter.Admitted == 0 {
		t.Fatal("query admission not reflected in healthz")
	}
}

// TestChaosResilientHandlerSheds: a saturating burst of clients against
// a single-slot server yields 429s with Retry-After while every
// admitted query completes correctly and promptly.
func TestChaosResilientHandlerSheds(t *testing.T) {
	_, srv := newResilientServer(t, 2_000, ServeConfig{MaxInFlight: 1})
	const clients = 32
	var ok, shed atomic.Int64
	var worst atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Get(srv.URL + "/query?failed=1")
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
				if len(body) == 0 {
					t.Error("admitted query returned no rows")
				}
				ns := time.Since(start).Nanoseconds()
				for {
					w := worst.Load()
					if ns <= w || worst.CompareAndSwap(w, ns) {
						break
					}
				}
			case http.StatusTooManyRequests:
				shed.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			default:
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Fatal("no queries admitted")
	}
	if shed.Load() == 0 {
		t.Fatalf("no load shed with %d clients against 1 slot", clients)
	}
	if w := time.Duration(worst.Load()); w > 10*time.Second {
		t.Fatalf("admitted query latency %v unbounded", w)
	}
}

// TestQueryHonoursRequestDeadline: an already-expired per-request
// context yields a clean 503 instead of a hung or buffered stream.
func TestQueryHonoursRequestDeadline(t *testing.T) {
	s, err := Create(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 500)
	// Drive the raw handler with a cancelled context: the row-loop
	// deadline check must abort before streaming the first row.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/query?failed=1", nil).WithContext(ctx)
	rr := httptest.NewRecorder()
	NewHandler(s).ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired-deadline query status = %d, want 503", rr.Code)
	}
}

// TestCountHonoursRequestDeadline: a count that has to read records
// stops at an expired per-request context with a clean 503, as /query
// does, instead of running the scan to its end.
func TestCountHonoursRequestDeadline(t *testing.T) {
	s, err := Create(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, target := range []string{"/count?vantage=eu-cloud", "/count?vantage=eu-cloud&shard=1"} {
		before := s.Stats().RowsScanned
		rr := httptest.NewRecorder()
		NewHandler(s).ServeHTTP(rr, httptest.NewRequest("GET", target, nil).WithContext(ctx))
		if rr.Code != http.StatusServiceUnavailable {
			t.Errorf("%s past its deadline: status %d, want 503", target, rr.Code)
		}
		if read := s.Stats().RowsScanned - before; read != 0 {
			t.Errorf("%s past its deadline still read %d records", target, read)
		}
	}
}
