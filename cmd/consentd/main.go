// Command consentd serves real-time consent decisions: the serving-side
// counterpart of this repository's batch TCF analyses, answering "may
// vendor N process for purpose P under this TC string, and on which
// legal basis?" at auction latency (see DESIGN.md §10).
//
// Usage:
//
//	consentd [-addr 127.0.0.1:8344] [-max-inflight N]
//	         [-cache N] [-cache-shards N] [-metrics]
//	         [-gvl-seed S] [-gvl-versions N] [-gvl-vendors N] [-flexible-prob P]
//
// At startup the daemon generates the deterministic GVL version history
// (the same internal/gvl model the batch side uses), upgrades it to v2
// with flexible-purpose enrichment, and pre-resolves every version into
// packed serving tables. Decisions then run entirely on bit arithmetic:
// raw strings are compiled once into the sharded LRU and every
// steady-state decision is allocation-free.
//
// Endpoints (behind a load-shedding limiter):
//
//	GET  /decide?tc=S&vendor=N&purpose=P   one decision as JSON
//	POST /v1/batch                         NDJSON in/out, one line per
//	                                       decision; {"t":…,"v":…,"p":…}
//	                                       lines, "t" sticky across lines
//	POST /v1/filter                        {"t":…,"purpose":P,"vendors":[…]}
//	                                       → the subset that may process
//	GET  /healthz                          counters, cache and GVL state
//	                                       (never load-shed)
//
// With -metrics, /metrics, /metrics.json, /debug/trace and
// /debug/pprof/ are mounted outside the limiter (decision counters by
// basis, cache hit ratio, latency histograms, per-request spans).
//
// Drive it with cmd/decisionload:
//
//	consentd -addr 127.0.0.1:8344 &
//	decisionload -server http://127.0.0.1:8344 -decisions 1000000
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/daemon"
	"repro/internal/decision"
	"repro/internal/gvl"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8344", "listen address")
		maxInFly   = flag.Int("max-inflight", 256, "concurrent requests served before shedding with 429")
		cacheCap   = flag.Int("cache", 32768, "compiled consent strings cached")
		cacheShard = flag.Int("cache-shards", 16, "cache shard count (rounded up to a power of two)")
		metrics    = flag.Bool("metrics", false, "expose /metrics, /debug/trace and /debug/pprof (outside the limiter)")
		gvlSeed    = flag.Uint64("gvl-seed", 1, "seed for the generated GVL history")
		gvlVers    = flag.Int("gvl-versions", 215, "GVL versions to publish and pre-resolve")
		gvlVendors = flag.Int("gvl-vendors", 650, "peak vendor count of the generated GVL")
		flexProb   = flag.Float64("flexible-prob", 0.25, "probability a declared purpose is flexible in the v2 upgrade")
	)
	flag.Parse()

	t0 := time.Now()
	h := gvl.GenerateHistory(gvl.HistoryConfig{
		Seed:     *gvlSeed,
		Versions: *gvlVers,
		// InitialVendors keeps its generator default; the peak is the
		// knob that matters for table width.
		PeakVendors: *gvlVendors,
	})
	h2 := gvl.UpgradeHistory(h, gvl.V2UpgradeConfig{
		FlexibleSeed: *gvlSeed,
		FlexibleProb: *flexProb,
	})
	resolver := decision.NewResolver(h2)
	minV, maxV, nV := resolver.Versions()

	d := daemon.New("consentd", *metrics, *metrics)
	srv := decision.NewServer(decision.ServerConfig{
		Resolver:    resolver,
		Cache:       decision.CacheConfig{Capacity: *cacheCap, Shards: *cacheShard},
		MaxInFlight: *maxInFly,
		Registry:    d.Registry,
		Tracer:      d.Tracer,
	})
	d.Handle("/", srv.Handler())

	bound, err := d.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "consentd:", err)
		os.Exit(1)
	}
	fmt.Printf("consentd: %d GVL versions (v%d–v%d) pre-resolved in %v; serving on %s\n",
		nV, minV, maxV, time.Since(t0).Round(time.Millisecond), bound)
	fmt.Printf("consentd: endpoints /decide /v1/batch /v1/filter /healthz; ≤%d in flight; cache %d strings.\n",
		*maxInFly, *cacheCap)
	if *metrics {
		fmt.Printf("consentd: telemetry on /metrics, /metrics.json, /debug/trace, /debug/pprof/\n")
	}

	if err := d.Serve(nil); err != nil {
		fmt.Fprintln(os.Stderr, "consentd:", err)
		os.Exit(1)
	}
	st := srv.Cache().Stats()
	fmt.Printf("consentd: drained and stopped (cache %d/%d entries, %.1f%% hit ratio, %d evictions)\n",
		st.Size, st.Capacity, 100*st.HitRatio(), st.Evictions)
}
