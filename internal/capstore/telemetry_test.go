package capstore

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/obs"
)

// Per-query histograms and the query span must agree with the
// cumulative Stats counters for the same query.
func TestStoreQueryTelemetry(t *testing.T) {
	s, err := Create(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 200)

	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	at := time.Unix(1000, 0)
	s.Metrics().Now = func() time.Time { return at }
	tr := obs.NewTracer(obs.TracerConfig{Clock: func() time.Time { return at }})
	s.SetTracer(tr)

	before := s.Stats()
	n, err := s.Count(capturedb.Query{Domain: "site-001.com"})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("query matched nothing; corpus changed?")
	}
	after := s.Stats()

	m := s.Metrics()
	if got := m.QuerySeconds.Snapshot().Count; got != 1 {
		t.Errorf("query latency observations = %d, want 1", got)
	}
	if got := m.RowsScanned.Snapshot().Sum; got != float64(after.RowsScanned-before.RowsScanned) {
		t.Errorf("per-query scanned sum = %v, stats delta %d", got, after.RowsScanned-before.RowsScanned)
	}
	if got := m.RowsSkipped.Snapshot().Sum; got != float64(after.RowsSkipped-before.RowsSkipped) {
		t.Errorf("per-query skipped sum = %v, stats delta %d", got, after.RowsSkipped-before.RowsSkipped)
	}

	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf, "query"); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no query span exported")
	}
	if !strings.Contains(line, `"id":"query[path=domain-index]"`) {
		t.Errorf("span should carry the access path: %s", line)
	}
	scannedAttr := `{"k":"scanned","v":"` + strconv.FormatInt(after.RowsScanned-before.RowsScanned, 10) + `"}`
	if !strings.Contains(line, scannedAttr) {
		t.Errorf("span missing %s: %s", scannedAttr, line)
	}

	// The registered operational families must expose valid text.
	var exp bytes.Buffer
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	text := exp.String()
	for _, want := range []string{
		"capstore_records_total 200",
		"capstore_segments 4",
		"capstore_query_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Errorf("invalid exposition: %v", err)
	}
}

// The /healthz telemetry summary must round-trip through the HTTP
// client: uptime from the injected clock and the slowest non-empty
// latency buckets, slowest first.
func TestClientHealthTelemetryRoundTrip(t *testing.T) {
	s, err := Create(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 120)

	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	m := s.Metrics()
	// Seed the latency histogram with known observations instead of
	// relying on real query timing: two slow queries, one fast.
	m.QuerySeconds.Observe(0.9) // le=1
	m.QuerySeconds.Observe(0.9) // le=1
	m.QuerySeconds.Observe(2.0) // le=2.5

	now := time.Unix(5000, 0)
	srv := httptest.NewServer(NewResilientHandler(s, ServeConfig{
		Metrics: m,
		Now: func() time.Time {
			now = now.Add(3 * time.Second)
			return now
		},
	}))
	defer srv.Close()
	cl := NewClient(srv.URL)

	h, err := cl.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.Records != 120 {
		t.Errorf("records = %d, want 120", h.Records)
	}
	if h.Telemetry == nil {
		t.Fatal("telemetry summary missing")
	}
	if h.Telemetry.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v, want > 0", h.Telemetry.UptimeSeconds)
	}
	want := []obs.SummaryBucket{{LE: "2.5", Count: 1}, {LE: "1", Count: 2}}
	got := h.Telemetry.SlowestQueryBuckets
	if len(got) != len(want) {
		t.Fatalf("slowest buckets = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// A server without metrics must omit the summary entirely.
	plain := httptest.NewServer(NewResilientHandler(s, ServeConfig{}))
	defer plain.Close()
	h2, err := NewClient(plain.URL).Health()
	if err != nil {
		t.Fatal(err)
	}
	if h2.Telemetry != nil {
		t.Errorf("telemetry should be absent without metrics, got %+v", h2.Telemetry)
	}
}

// Exercise the health digest's slowest-bucket edge cases directly.
func TestSlowestBuckets(t *testing.T) {
	reg := obs.NewRegistry()
	hist := obs.NewHistogram(reg, "h_seconds", "", []float64{0.1, 1, 10})
	if got := obs.Summarize(0, hist.Snapshot(), 3).SlowestQueryBuckets; len(got) != 0 {
		t.Errorf("empty histogram → %+v, want none", got)
	}
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 100} {
		hist.Observe(v)
	}
	got := obs.Summarize(0, hist.Snapshot(), 2).SlowestQueryBuckets
	want := []obs.SummaryBucket{{LE: "+Inf", Count: 1}, {LE: "10", Count: 1}}
	if len(got) != len(want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Telemetry attachment must be safe while queries and ingest run.
func TestRegisterMetricsConcurrentWithQueries(t *testing.T) {
	s, err := Create(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 50)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s.Query(capturedb.Query{Domain: "site-001.com"}, func(*capture.Capture) bool { return true }) //nolint:errcheck
			s.Record(sample("race.com", 1, "cdn.cookielaw.org"))
		}
	}()
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	s.SetTracer(obs.NewTracer(obs.TracerConfig{}))
	<-done
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(&buf); err != nil {
		t.Errorf("invalid exposition: %v", err)
	}
}

// A ring node serves every read as /query?shard=N or /count?shard=N;
// those must reach the query histogram and the query span like a
// whole-store query, with the access path the planner took.
func TestShardQueryTelemetry(t *testing.T) {
	s, srv := newTestServer(t, 200)
	s.RegisterMetrics(obs.NewRegistry())
	tr := obs.NewTracer(obs.TracerConfig{})
	s.SetTracer(tr)
	cl := NewClient(srv.URL)

	shard := ShardOf("site-001.com", s.NumShards())
	observed := 0
	for _, tc := range []struct {
		q    capturedb.Query
		path string
	}{
		{capturedb.Query{Domain: "site-001.com"}, "domain-index"},
		{capturedb.Query{RequestHost: "cdn.cookielaw.org"}, "host-index"},
		{capturedb.Query{Vantage: "eu-cloud"}, "scan"},
	} {
		rows := 0
		if err := cl.QueryShard(shard, tc.q, 0, 0, func(*capture.Capture) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
		n, err := cl.CountShard(context.Background(), shard, tc.q)
		if err != nil || n != rows || rows == 0 {
			t.Fatalf("%+v on shard %d: %d rows, count %d, %v", tc.q, shard, rows, n, err)
		}
		observed += 2
		if got := s.Metrics().QuerySeconds.Snapshot().Count; got != int64(observed) {
			t.Errorf("%s: %d latency observations after %d shard reads", tc.path, got, observed)
		}
		var buf bytes.Buffer
		if err := tr.WriteNDJSON(&buf, "query"); err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(buf.String(), `"id":"query[path=`+tc.path+`]"`); got != 2 {
			t.Errorf("%d query spans with path %s, want 2:\n%s", got, tc.path, buf.String())
		}
	}
}
