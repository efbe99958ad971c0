// Command crawl runs the Netograph-style social-media crawl on its own
// and reports dataset statistics: capture volume, observed domains,
// dedup rates and the daily CMP-share polarization of Section 3.5.
//
// Usage:
//
//	crawl [-domains N] [-shares N] [-seed N] [-workers N] [-from YYYY-MM-DD] [-to YYYY-MM-DD]
//	      [-out captures.jsonl] [-store capdir [-store-shards N]]
//	      [-retries N] [-breaker N] [-chaos SPEC] [-telemetry]
//	crawl -fleet http://COORD [-worker-id NAME]
//
// The crawl runs the deployment architecture, the StreamPlatform: a
// bounded capture queue feeding -workers browser workers, with
// retry/backoff (-retries), per-domain circuit breakers (-breaker) and
// a dead-letter ledger for shares that exhaust their chances. The
// defaults (-retries 1 -breaker 0) record every capture on its first
// attempt. -out and -store receive captures as workers finish them:
// in share order at -workers 1, which makes that archive
// byte-reproducible. -chaos injects deterministic faults into the
// substrate, e.g.:
//
//	crawl -retries 4 -breaker 8 -chaos '5xx=0.05,drop=0.02,antibot=0.01,seed=7'
//
// -telemetry attaches the unified metrics registry to the detector and
// the pipeline, and dumps the Prometheus text exposition when the run
// finishes.
//
// -fleet turns the process into a worker node of a distributed crawl:
// it pulls leases from the fleetd coordinator at the given URL, crawls
// them through the StreamPlatform path, and pushes captures to the
// capd ingest endpoint the coordinator names. Run parameters (seeds,
// retry budget, politeness) come from the coordinator's /config, so
// the other flags are ignored in this mode. See DESIGN.md §9.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/crawler"
	"repro/internal/detect"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/resilience/chaos"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

func main() {
	var (
		domains   = flag.Int("domains", 20_000, "universe size")
		shares    = flag.Int("shares", 800, "social-feed shares per day")
		seed      = flag.Uint64("seed", 1, "root seed")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "crawl concurrency (1 writes -out/-store in share order)")
		fromStr   = flag.String("from", "", "crawl start date (YYYY-MM-DD, default window start)")
		toStr     = flag.String("to", "", "crawl end date (YYYY-MM-DD, default window end)")
		outPath   = flag.String("out", "", "also persist raw captures to this JSONL file (query with capq -file)")
		storeDir  = flag.String("store", "", "also persist raw captures to a sharded capture store directory (serve with capd)")
		shards    = flag.Int("store-shards", capstore.DefaultShards, "segment count for -store")
		telemetry = flag.Bool("telemetry", false, "meter the run (detector, stream pipeline) and dump the Prometheus exposition on exit")
		retries   = flag.Int("retries", 1, "total attempt budget per share for transient failures (1 disables retrying)")
		breaker   = flag.Int("breaker", 0, "per-domain circuit breaker: consecutive failures before opening (0 disables)")
		chaosSpec = flag.String("chaos", "", "inject deterministic faults, e.g. '5xx=0.05,drop=0.02,antibot=0.01,latency=0.05,torn=0.01,seed=7'")
		fleetURL  = flag.String("fleet", "", "run as a fleet worker against this coordinator (fleetd) URL; most other flags are ignored — run parameters come from the coordinator's /config")
		workerID  = flag.String("worker-id", "", "worker name in the fleet protocol (default: host.pid)")
	)
	flag.Parse()

	if *fleetURL != "" {
		os.Exit(fleetWorker(*fleetURL, *workerID))
	}

	from := simtime.Day(0)
	to := simtime.Day(simtime.NumDays - 1)
	if *fromStr != "" {
		from = parseDay(*fromStr)
	}
	if *toStr != "" {
		to = parseDay(*toStr)
	}

	chaosCfg, err := chaos.ParseSpec(*chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(2)
	}
	var inj *chaos.Injector
	if *chaosSpec != "" {
		inj = chaos.New(chaosCfg)
	}

	// A nil registry keeps every recorder below in its no-op form, so
	// the untelemetered run pays only nil checks.
	var reg *obs.Registry
	if *telemetry {
		reg = obs.NewRegistry()
	}

	world := webworld.New(webworld.Config{Seed: *seed, Domains: *domains})
	feed := socialfeed.New(world, socialfeed.Config{Seed: *seed, SharesPerDay: *shares})
	det := detect.Default()
	det.SetMetrics(detect.NewMetrics(reg))
	observations := analysis.NewPresenceFold(det, interp.Options{})

	sinks := capture.MultiSink{observations}
	if *outPath != "" {
		w, err := capturedb.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crawl:", err)
			os.Exit(1)
		}
		defer func() {
			if err := w.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "crawl: writing captures:", err)
				os.Exit(1)
			}
			fmt.Printf("  persisted captures:  %d records in %s\n", w.Len(), *outPath)
		}()
		sinks = append(sinks, w)
	}
	if *storeDir != "" {
		st, err := capstore.Create(*storeDir, *shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crawl:", err)
			os.Exit(1)
		}
		// With torn-write chaos the store is fed through the injector's
		// tearing sink, whose Close leaves crash-truncated segment
		// tails for capd to repair on open.
		var storeSink capture.Sink = st
		closeStore := func() error { return st.Close() }
		if inj != nil && chaosCfg.TornWriteRate > 0 {
			torn := inj.TornSink(st)
			storeSink = torn
			closeStore = func() error { return torn.Close() }
		}
		defer func() {
			if err := closeStore(); err != nil {
				fmt.Fprintln(os.Stderr, "crawl: writing capture store:", err)
				os.Exit(1)
			}
			stats := st.Stats()
			fmt.Printf("  capture store:       %d records in %d segments under %s (%d domains, %d hosts indexed; serve with capd)\n",
				stats.Records, len(stats.Shards), *storeDir, stats.IndexedDomains, stats.IndexedHosts)
		}()
		sinks = append(sinks, storeSink)
	}
	var sink capture.Sink = observations
	if len(sinks) > 1 {
		sink = sinks
	}

	start := time.Now()
	fmt.Printf("Crawling %s … %s (%d days), %d shares/day over %d shareable domains\n",
		from, to, int(to-from)+1, *shares, feed.NumShareable())

	scfg := crawler.StreamConfig{
		Seed:    *seed,
		Workers: *workers,
		Retry:   resilience.RetryPolicy{MaxAttempts: *retries},
		Breaker: resilience.BreakerConfig{Threshold: *breaker},
		Metrics: crawler.NewStreamMetrics(reg),
	}
	if inj != nil {
		scfg.Visitor = inj.Visitor(world)
	}
	platform := crawler.NewStreamPlatform(world, scfg)
	platform.RegisterMetrics(reg)
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		platform.Run(ctx, sink)
	}()
	for day := from; day <= to; day++ {
		for _, s := range feed.Day(day) {
			if err := platform.Submit(ctx, day, s); err != nil {
				fmt.Fprintln(os.Stderr, "crawl: submit:", err)
				os.Exit(1)
			}
		}
		if int(day)%100 == 0 {
			fmt.Fprintf(os.Stderr, "  %s: %d captures\n", day, platform.Captures())
		}
	}
	platform.Close()
	<-done
	elapsed := time.Since(start)

	fmt.Printf("\nDataset statistics:\n")
	fmt.Printf("  captures:            %d (%.0f/s)\n", observations.Total, float64(observations.Total)/elapsed.Seconds())
	fmt.Printf("  unique domains:      %d\n", observations.NumDomains())
	fmt.Printf("  feed submissions:    %d (%.1f%% skipped by dedup)\n",
		feed.Submitted, 100*float64(feed.Skipped)/float64(feed.Submitted))
	fmt.Printf("  multi-CMP captures:  %d (%.4f%%; paper: 0.01%%)\n",
		observations.MultiCMP, 100*float64(observations.MultiCMP)/float64(observations.Total))

	// The ledger has news only when retries, breakers or injected faults
	// can end a share other than as a capture recorded on its first
	// attempt.
	if *retries > 1 || *breaker > 0 || inj != nil {
		st := platform.Stats()
		fmt.Printf("\nResilience (stream pipeline):\n")
		fmt.Printf("  submitted:           %d\n", st.Submitted)
		fmt.Printf("  succeeded:           %d (%.2f%%)\n", st.Succeeded, 100*float64(st.Succeeded)/float64(st.Submitted))
		fmt.Printf("  failed (recorded):   %d\n", st.FailedRecorded)
		fmt.Printf("  retries:             %d\n", st.Retries)
		fmt.Printf("  dead-lettered:       %d %v\n", st.DeadLettered+st.Dropped, platform.DeadLetters().ByReason())
		fmt.Printf("  breakers open now:   %d\n", st.BreakersOpenNow)
	}
	if inj != nil {
		c := inj.Counts()
		fmt.Printf("\nChaos (seed %d): %d faults over %d visits, %d records\n",
			chaosCfg.Seed, c.Total(), c.Visits, c.Records)
		fmt.Printf("  5xx %d, drops %d, antibot %d, latency %d, torn writes %d\n",
			c.FiveXX, c.Drops, c.AntiBot, c.Latency, c.Torn)
	}

	below, between, above := observations.DailyShareDistribution(3, 0.05, 0.95)
	total := below + between + above
	if total > 0 {
		fmt.Printf("  daily CMP-share polarization: %.2f%% of domain-days <5%% or >95%% (paper: 99.8%% of domains)\n",
			100*float64(below+above)/float64(total))
	}

	db := observations.Presence()
	fmt.Printf("  domains with CMP presence: %d\n", db.Len())

	if reg != nil {
		fmt.Printf("\nTelemetry (Prometheus exposition):\n")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "crawl: telemetry:", err)
			os.Exit(1)
		}
	}
}

func parseDay(s string) simtime.Day {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crawl: bad date %q: %v\n", s, err)
		os.Exit(2)
	}
	d := simtime.FromTime(t)
	if !d.Valid() {
		fmt.Fprintf(os.Stderr, "crawl: %s outside the observation window (%s – %s)\n",
			s, simtime.Day(0), simtime.Day(simtime.NumDays-1))
		os.Exit(2)
	}
	return d
}
