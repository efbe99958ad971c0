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
	w := webworld.New(webworld.Config{Seed: 7, Domains: 2000})
	var domains []string
	for _, d := range w.Domains()[:2*batch] {
		domains = append(domains, d.Name)
	}
	// One capture per share: the campaign visits a share from several
	// vantages, and the nodes keep one record per idempotency key.
	var caps []*capture.Capture
	var days []simtime.Day
	seen := map[string]bool{}
	for _, c := range (&crawler.Campaign{World: w, Domains: domains, Day: simtime.Table1Snapshot, Workers: 1}).Run() {
		if k := capstore.IngestKey(c); !seen[k] && len(caps) < batch {
			seen[k] = true
			cp := *c
			caps, days = append(caps, &cp), append(days, c.Day)
		}
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
