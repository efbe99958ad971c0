package resilience

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestHTTPLimiterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewHTTPLimiter(HTTPLimiterConfig{MaxInFlight: 1})
	l.RegisterMetrics(reg)

	release := make(chan struct{})
	inside := make(chan struct{})
	h := l.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inside)
		<-release
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-inside
	// Second request while the first holds the only slot: shed.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"resilience_http_in_flight 1",
		"resilience_http_max_in_flight 1",
		"resilience_http_admitted_total 1",
		"resilience_http_shed_total 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
