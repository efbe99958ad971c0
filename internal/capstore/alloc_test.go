package capstore

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/crawler"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

// The storage path allocates per request only what a tier keeps. These
// tests pin the buffers it used to allocate and drop on every call.

// crawlCaptures crawls the first n captures of a synthetic web: the
// records the storage path carries in a real campaign.
func crawlCaptures(t testing.TB, n int) []*capture.Capture {
	t.Helper()
	w := webworld.New(webworld.Config{Seed: 7, Domains: 2000})
	var domains []string
	for _, d := range w.Domains()[:n] {
		domains = append(domains, d.Name)
	}
	caps := (&crawler.Campaign{World: w, Domains: domains, Day: simtime.Table1Snapshot, Workers: 1}).Run()
	if len(caps) < n {
		t.Fatalf("crawl gave %d captures, want %d", len(caps), n)
	}
	return caps[:n]
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one
// call of f allocates, averaged over runs calls after a warm-up call.
// The buffers it pins come from pools, so it skips under the race
// detector (race_on_test.go).
func bytesPerRun(t *testing.T, runs int, f func()) float64 {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestEncodeBatchAllocatesOnce(t *testing.T) {
	caps := crawlCaptures(t, 64)
	body, err := encodeBatch(caps)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, c := range caps {
		line, err := capturedb.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, line...)
	}
	if string(body) != string(want) {
		t.Fatal("encodeBatch differs from the captures' Encode lines back to back")
	}
	if n := testing.AllocsPerRun(20, func() { encodeBatch(caps) }); n != 1 {
		t.Errorf("encodeBatch of %d captures: %v allocations, want 1", len(caps), n)
	}
}

// drainServer answers every /ingest like a node that accepted the body,
// reading it into nothing, so what a push allocates is the client's.
func drainServer(t *testing.T) *Client {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		json.NewEncoder(w).Encode(IngestResult{Accepted: n}) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	return NewClient(srv.URL)
}

func TestRecordLinesTraceSendsWithoutCopy(t *testing.T) {
	cl := drainServer(t)
	var lines [][]byte
	size := 0
	for _, c := range crawlCaptures(t, 64) {
		line, err := capturedb.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
		size += len(line)
	}
	res, err := cl.RecordLinesTrace("", lines)
	if err != nil || res.Accepted != int64(size) {
		t.Fatalf("push: %+v, %v; want %d bytes through", res, err, size)
	}
	// A copy of the body — a join, or a per-request copy buffer in the
	// transport — would be at least min(size, 32 KiB).
	b := bytesPerRun(t, 20, func() { cl.RecordLinesTrace("", lines) })
	t.Logf("pushing %d bytes of lines allocates %.0f bytes per push", size, b)
	if b > float64(size)/4 {
		t.Errorf("pushing %d bytes of lines allocates %.0f bytes per push, want under %d", size, b, size/4)
	}
}

func TestStreamReusesReader(t *testing.T) {
	s, srv := newTestServer(t, 200)
	cl := NewClient(srv.URL)
	q := capturedb.Query{Domain: "site-001.com"}
	shard := ShardOf(q.Domain, s.NumShards())
	rows := 0
	if err := cl.QueryShardLines(context.Background(), shard, q, 0, 0, func([]byte) bool { rows++; return true }); err != nil || rows == 0 {
		t.Fatalf("query: %d rows, %v", rows, err)
	}
	b := bytesPerRun(t, 20, func() {
		cl.QueryShardLines(context.Background(), shard, q, 0, 0, func([]byte) bool { return true }) //nolint:errcheck
	})
	t.Logf("a %d-row /query stream allocates %.0f bytes", rows, b)
	if b > 32<<10 {
		t.Errorf("a %d-row /query stream allocates %.0f bytes, want under 32 KiB (no 64 KiB reader per stream)", rows, b)
	}
}

func TestManifestAllocatesNoHashBuffer(t *testing.T) {
	s, err := Create(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 200)
	if _, err := s.Manifest(); err != nil {
		t.Fatal(err)
	}
	// Every shard's tail is hashed; a read buffer per hash would be
	// 64 KiB each.
	b := bytesPerRun(t, 20, func() { s.Manifest() })
	t.Logf("Manifest of 8 shards allocates %.0f bytes per call", b)
	if b > 32<<10 {
		t.Errorf("Manifest of 8 shards allocates %.0f bytes per call, want under 32 KiB", b)
	}
}
