// Command capd serves a sharded capture store (written by
// `crawl -store`) over HTTP — the reproduction of the paper's central
// capture database with its custom query API (Section 3.2).
//
// Usage:
//
//	capd -store capdir [-addr 127.0.0.1:8650] [-max-inflight N]
//	     [-request-timeout 30s] [-ingest [-init-shards N]]
//
// Endpoints:
//
//	GET /query?domain=D&host=H&vantage=V&from=D1&to=D2&failed=1&limit=N&offset=M
//	    streaming NDJSON, one capture per line (capturedb wire format)
//	GET /count?…   match count as {"count": N}
//	GET /stats     per-shard record counts, index sizes, and counters
//	               for queries served and rows scanned vs. skipped
//	GET /healthz   store and admission-queue state (never load-shed)
//
// With -ingest, the store also accepts remote writes — the fleet's
// storage backend (see internal/fleet and DESIGN.md §9):
//
//	POST /ingest           NDJSON batch in the capturedb wire format,
//	                       applied in body order with per-share
//	                       idempotency (re-delivery is safe)
//	POST /ingest?at=S&n=N  ordered mode: the batch covers work items
//	                       [S, S+N) of the coordinator's total order
//	                       and commits exactly in that order
//
// -init-shards N creates the store directory if it does not exist yet,
// so a fleet can be booted against an empty capd.
//
// With -metrics, the unified telemetry surface is mounted as well —
// outside the load-shedding limiter, so it stays scrapeable while
// queries are being shed:
//
//	GET /metrics       Prometheus text exposition (store counters,
//	                   per-query histograms, limiter admission state)
//	GET /metrics.json  the same registry as JSON
//	GET /debug/trace   per-query spans as NDJSON (?name= filters)
//	GET /debug/pprof/  the standard net/http/pprof surface
//
// and /healthz gains a telemetry summary (uptime, slowest query
// buckets).
//
// With -compact, a background compactor folds each shard's append-only
// tail into immutable pack files with persistent footer indexes once
// the tail crosses -compact-tail-bytes (or outlives -compact-age), so
// a later open loads indexes instead of re-scanning segments;
// -compact-pace bounds the compactor's write rate. POST /compact
// (mounted outside the limiter, like /metrics) forces a full
// compaction pass on demand regardless of -compact.
//
// The server degrades gracefully instead of falling over: at most
// -max-inflight requests are served concurrently and the rest are shed
// with 429 + Retry-After, each admitted request is bounded by
// -request-timeout, request bodies are capped, and slow-loris clients
// are cut by read-header/idle timeouts.
//
// Query it with `capq -server http://127.0.0.1:8650 …` or curl:
//
//	curl 'http://127.0.0.1:8650/count?host=cdn.cookielaw.org'
//	curl 'http://127.0.0.1:8650/query?domain=example.com&limit=5'
//	curl 'http://127.0.0.1:8650/healthz'
//	curl 'http://127.0.0.1:8650/metrics'        # with -metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/capstore"
	"repro/internal/daemon"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that deferred closes run before
// the process exits.
func run() int {
	var (
		dir        = flag.String("store", "", "capture store directory (required; see crawl -store)")
		addr       = flag.String("addr", "127.0.0.1:8650", "listen address")
		maxInFly   = flag.Int("max-inflight", 64, "concurrent requests served before shedding with 429")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables)")
		metrics    = flag.Bool("metrics", false, "expose /metrics, /debug/trace and /debug/pprof (outside the limiter)")
		ingest     = flag.Bool("ingest", false, "accept remote writes on POST /ingest (fleet storage backend)")
		initShards = flag.Int("init-shards", 0, "create the store with N shards if -store does not exist yet (requires -ingest)")
		maxPending = flag.Int("ingest-pending", 64, "ordered-ingest reorder batches buffered before shedding with 503")

		compact      = flag.Bool("compact", false, "run the background segment compactor (pack engine)")
		compactBytes = flag.Int64("compact-tail-bytes", capstore.DefaultMinTailBytes, "compact a shard once its tail reaches this many bytes")
		compactAge   = flag.Duration("compact-age", 0, "also compact a non-empty tail older than this (0 disables the age trigger)")
		compactEvery = flag.Duration("compact-interval", time.Second, "how often the compactor checks each shard's triggers; shards are polled in turn")
		compactPace  = flag.Int64("compact-pace", 0, "bound compaction writes to this many bytes/sec (0 = unpaced)")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		return 2
	}
	if *initShards > 0 && !*ingest {
		fmt.Fprintln(os.Stderr, "capd: -init-shards only makes sense with -ingest")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "capd:", err)
		return 1
	}

	var store *capstore.Store
	var err error
	if *initShards > 0 {
		if _, statErr := os.Stat(*dir); os.IsNotExist(statErr) {
			store, err = capstore.Create(*dir, *initShards)
		} else {
			store, err = capstore.Open(*dir)
		}
	} else {
		store, err = capstore.Open(*dir)
	}
	if err != nil {
		return fail(err)
	}
	defer store.Close()
	st := store.Stats()
	if st.TruncatedTails > 0 {
		fmt.Fprintf(os.Stderr, "capd: repaired %d crash-truncated segment tail(s)\n", st.TruncatedTails)
	}
	if st.TornPacks > 0 {
		fmt.Fprintf(os.Stderr, "capd: quarantined %d torn pack(s)\n", st.TornPacks)
	}
	if st.OverlapRepairs > 0 {
		fmt.Fprintf(os.Stderr, "capd: completed %d interrupted compaction(s)\n", st.OverlapRepairs)
	}
	if *compact {
		comp := store.StartCompactor(capstore.CompactConfig{
			MinTailBytes:    *compactBytes,
			MaxTailAge:      *compactAge,
			Interval:        *compactEvery,
			PaceBytesPerSec: *compactPace,
		})
		defer comp.Close()
		fmt.Printf("capd: compactor on (tail ≥ %d bytes, age %v, every %v, pace %d B/s)\n",
			*compactBytes, *compactAge, *compactEvery, *compactPace)
	}

	d := daemon.New("capd", *metrics, *metrics)
	bound, err := d.Listen(*addr)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("capd: serving %d captures (%d segments, %d domains, %d request hosts indexed) on %s\n",
		st.Records, len(st.Shards), st.IndexedDomains, st.IndexedHosts, bound)
	fmt.Printf("capd: endpoints /query /count /stats /healthz; ≤%d in flight, %v/request; Ctrl-C shuts down gracefully.\n",
		*maxInFly, *reqTimeout)

	timeout := *reqTimeout
	if timeout <= 0 {
		timeout = -1 // ServeConfig: negative disables, zero means default
	}
	serveCfg := capstore.ServeConfig{
		MaxInFlight:    *maxInFly,
		RequestTimeout: timeout,
	}
	if *metrics {
		store.RegisterMetrics(d.Registry)
		store.SetTracer(d.Tracer)
		serveCfg.Registry = d.Registry
		serveCfg.Metrics = store.Metrics()
		fmt.Printf("capd: telemetry on /metrics, /metrics.json, /debug/trace, /debug/pprof/\n")
	}
	if *ingest {
		ingester, err := capstore.NewIngester(store, capstore.IngestConfig{
			MaxPendingBatches: *maxPending,
			Registry:          d.Registry,
			Tracer:            d.Tracer,
		})
		if err != nil {
			return fail(err)
		}
		// /healthz reports the ingest commit cursor so operators can
		// compare it against analyzed view lag in one probe.
		serveCfg.Ingester = ingester
		// Ingest mounts outside the limiter and its 1 MiB body cap:
		// the query path's shedding must not starve the fleet's
		// storage backend, and batches are legitimately large. The
		// ingester enforces its own body bound and reorder-buffer
		// shedding instead.
		d.Handle("/ingest", ingester)
		fmt.Printf("capd: remote ingest on POST /ingest (≤%d reorder batches buffered)\n", *maxPending)
	}
	d.Handle("/", capstore.NewResilientHandler(store, serveCfg))
	if err := d.Serve(nil); err != nil {
		return fail(err)
	}
	final := store.Stats()
	fmt.Printf("capd: drained and stopped (%d queries served, %d rows scanned, %d skipped by indexes)\n",
		final.QueriesServed, final.RowsScanned, final.RowsSkipped)
	return 0
}
