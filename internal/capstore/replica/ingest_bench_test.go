package replica

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/crawler"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

// BenchmarkRingIngest pushes 64-record batches of crawled captures
// through a ring front door to two capd nodes holding both replicas,
// every hop over loopback HTTP, until both nodes hold every record.
// B/op and allocs/op are per batch, client, ring and nodes together:
// the garbage the storage path makes per pushed record, times 64.
func BenchmarkRingIngest(b *testing.B) {
	const batch = 64
	caps := campaignCaptures(batch)
	days := make([]simtime.Day, len(caps))
	for i, c := range caps {
		days[i] = c.Day
	}

	const shards = 8
	cfg := Config{Shards: shards, Seed: 11, Replicas: 2}
	for _, name := range []string{"node-0", "node-1"} {
		store, err := capstore.Create(b.TempDir(), shards)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { store.Close() })
		ing, err := capstore.NewIngester(store, capstore.IngestConfig{})
		if err != nil {
			b.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/ingest", ing)
		mux.Handle("/", capstore.NewResilientHandler(store, capstore.ServeConfig{}))
		srv := httptest.NewServer(mux)
		b.Cleanup(srv.Close)
		cfg.Nodes = append(cfg.Nodes, NodeConfig{Name: name, URL: srv.URL})
	}
	wr, err := NewWriter(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { wr.Close() })
	front := httptest.NewServer(Handler(wr))
	b.Cleanup(front.Close)
	cl := capstore.NewClient(front.URL)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range caps {
			// A fresh idempotency key per push: the crawl retries a
			// share within a week, so a week apart keeps them apart.
			c.Day = days[j] + simtime.Day(8*i)
		}
		if _, err := cl.RecordBatch(caps); err != nil {
			b.Fatal(err)
		}
	}
	if err := wr.WaitConverged(time.Minute); err != nil {
		b.Fatal(err)
	}
}

// campaignCaptures returns the first n captures of a seed-7 toplist
// campaign: each domain captured on one day from several vantages.
func campaignCaptures(n int) []*capture.Capture {
	w := webworld.New(webworld.Config{Seed: 7, Domains: 2000})
	var domains []string
	for _, d := range w.Domains()[:2*n] {
		domains = append(domains, d.Name)
	}
	return (&crawler.Campaign{World: w, Domains: domains, Day: simtime.Table1Snapshot, Workers: 1}).Run()[:n]
}

// TestRingKeepsEveryVantage: the first 64 captures of a toplist
// campaign, several vantages' captures of one domain on one day among
// them, all reach their two replicas in a three-node ring, so the ring
// converges; with a vantage-blind idempotency key the nodes dropped a
// third of them and it never did.
func TestRingKeepsEveryVantage(t *testing.T) {
	caps := campaignCaptures(64)
	c := newCluster(t, 3, 8, nil)
	if _, err := c.w.RecordBatch(caps); err != nil {
		t.Fatal(err)
	}
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var held int64
	for _, s := range c.stores {
		held += s.Stats().Records
	}
	if held != 2*int64(len(caps)) {
		t.Fatalf("nodes hold %d records, want %d (two replicas of %d)", held, 2*len(caps), len(caps))
	}
}
