// Command fleetd hosts the fleet coordinator: the control plane of the
// distributed crawl (DESIGN.md §9). It materializes the feed window's
// work list, hands out leases to `crawl -fleet` workers, reassigns
// leases whose heartbeats stop, checkpoints per-chunk outcomes for
// crash-safe resume, and accounts for every share exactly once.
//
// Usage:
//
//	fleetd -ingest http://127.0.0.1:8650 [-addr 127.0.0.1:8660]
//	       [-seed 1] [-domains 20000] [-shares 800]
//	       [-from YYYY-MM-DD] [-to YYYY-MM-DD]
//	       [-lease-size 32] [-lease-ttl 10s] [-retry-budget 3]
//	       [-max-leases 64] [-checkpoint fleet.ckpt]
//	       [-retries 3] [-breaker 0] [-politeness 2ms] [-metrics]
//	       [-obsd http://127.0.0.1:8670]
//
// Endpoints:
//
//	POST /lease /heartbeat /complete   the fleet wire protocol
//	GET  /status                       ledger + chunk states
//	GET  /config                       RunConfig for workers
//	GET  /healthz                      liveness (never load-shed)
//
// Workers need only the coordinator address: every run parameter that
// determinism depends on (world seed, crawl seed, retry budget,
// politeness, the capd ingest URL) is served on /config, so a fleet
// cannot accidentally run with mismatched seeds.
//
// With -metrics the unified telemetry surface (/metrics, /metrics.json,
// /debug/trace, /debug/pprof/) is mounted outside the protocol limiter.
//
// fleetd exits 0 once the window is drained (every share captured,
// dead-lettered, or — after Ctrl-C — dropped), printing the final
// ledger. A restart with the same flags and -checkpoint resumes where
// the previous run stopped.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/capstore"
	"repro/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that the deferred coordinator
// close (the checkpoint log) runs before the process exits.
func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8660", "listen address")
		ingestURL  = flag.String("ingest", "", "capd ingest base URL (required; capd must run with -ingest)")
		seed       = flag.Uint64("seed", 1, "root seed (world, feed, and crawl streams derive from it)")
		domains    = flag.Int("domains", 20_000, "universe size")
		shares     = flag.Int("shares", 800, "social-feed shares per day")
		fromStr    = flag.String("from", "", "window start (YYYY-MM-DD or day index, default window start)")
		toStr      = flag.String("to", "", "window end (YYYY-MM-DD or day index, default window end)")
		leaseSize  = flag.Int("lease-size", 32, "work items per lease")
		leaseTTL   = flag.Duration("lease-ttl", 10*time.Second, "lease time-to-live without a heartbeat")
		budget     = flag.Int("retry-budget", 3, "leases a chunk may consume before its shares are dead-lettered")
		maxLeases  = flag.Int("max-leases", 64, "in-flight lease ceiling; beyond it lease requests are shed")
		checkpoint = flag.String("checkpoint", "", "progress log for crash-safe resume")
		retries    = flag.Int("retries", 3, "worker-side attempt budget per share")
		breaker    = flag.Int("breaker", 0, "worker-side per-domain breaker threshold (0 disables; breakers are order-dependent, keep 0 for reproducible runs)")
		politeness = flag.Duration("politeness", 2*time.Millisecond, "worker-side per-domain politeness delay")
		metrics    = flag.Bool("metrics", false, "expose /metrics, /debug/trace and /debug/pprof (outside the limiter)")
		obsURL     = flag.String("obsd", "", "obsd aggregator base URL: served to workers on /config and the destination for fleetd's own span export at drain")
	)
	flag.Parse()
	if *ingestURL == "" {
		flag.Usage()
		return 2
	}

	from := simtime.Day(0)
	to := simtime.Day(simtime.NumDays - 1)
	if *fromStr != "" {
		from = parseDay(*fromStr)
	}
	if *toStr != "" {
		to = parseDay(*toStr)
	}

	world := webworld.New(webworld.Config{Seed: *seed, Domains: *domains})
	feed := socialfeed.New(world, socialfeed.Config{Seed: *seed, SharesPerDay: *shares})
	items := fleet.WorkFromFeed(feed, from, to)
	fmt.Printf("fleetd: window %s..%s, %d shares in %d-item leases\n",
		from, to, len(items), *leaseSize)

	// Spans are recorded for the local debug surface and for the
	// export pushed to obsd at drain; either wish turns the tracer on.
	d := daemon.New("fleetd", *metrics, *metrics || *obsURL != "")

	capCl := capstore.NewClient(*ingestURL)
	deadLetters := resilience.NewMemDeadLetter()
	co, err := fleet.NewCoordinator(items, fleet.CoordinatorConfig{
		LeaseSize:        *leaseSize,
		LeaseTTL:         *leaseTTL,
		LeaseRetryBudget: *budget,
		MaxActiveLeases:  *maxLeases,
		CheckpointPath:   *checkpoint,
		Skip: func(at, n int64) error {
			_, err := capCl.RecordBatchAt(at, n, nil)
			return err
		},
		DeadLetter: deadLetters,
		Registry:   d.Registry,
		Tracer:     d.Tracer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		return 1
	}
	defer co.Close()

	rc := fleet.RunConfig{
		WorldSeed:        *seed,
		WorldDomains:     *domains,
		CrawlSeed:        *seed,
		RetryAttempts:    *retries,
		BreakerThreshold: *breaker,
		PolitenessMS:     politeness.Milliseconds(),
		IngestURL:        *ingestURL,
		ObsURL:           *obsURL,
	}
	d.Handle("/", fleet.NewHandler(co, rc, fleet.ServerConfig{MaxInFlight: 2 * *maxLeases}))

	bound, err := d.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		return 1
	}
	fmt.Printf("fleetd: serving /lease /heartbeat /complete /status /config on %s\n", bound)
	if *metrics {
		fmt.Printf("fleetd: telemetry on /metrics, /metrics.json, /debug/trace, /debug/pprof/\n")
	}

	// Sweep at half the TTL: expired leases reassign within one extra
	// half-TTL at worst, and pending cursor skips retry on the same beat.
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		ticker := time.NewTicker(*leaseTTL / 2)
		defer ticker.Stop()
		for {
			select {
			case <-co.Done():
				return
			case <-ticker.C:
				co.Sweep()
			}
		}
	}()

	exitCode := 0
	err = d.Serve(co.Done(), func() {
		select {
		case <-co.Done():
		default:
			// Early shutdown: drop unfinished work so the ledger still
			// balances, then drain the server.
			co.Abort()
			exitCode = 1
		}
		<-sweepDone
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		exitCode = 1
	}

	// fleetd is ephemeral from obsd's point of view: push the span
	// export on the way out, where a scrape cadence would miss it.
	if *obsURL != "" {
		if err := obs.PushSpans(http.DefaultClient, *obsURL+"/ingest/spans", d.Tracer); err != nil {
			fmt.Fprintln(os.Stderr, "fleetd: span push:", err)
		}
	}

	l := co.Ledger()
	fmt.Printf("fleetd: drained — submitted=%d captures=%d dead=%d dropped=%d (leases=%d reassigned=%d dup-completions=%d)\n",
		l.Submitted, l.Captures, l.DeadLettered, l.Dropped, l.Leases, l.Reassigned, l.DuplicateCompletions)
	if got := l.Captures + l.DeadLettered + l.Dropped; got != l.Submitted {
		fmt.Fprintf(os.Stderr, "fleetd: LEDGER VIOLATION: captures+dead+dropped=%d, submitted=%d\n", got, l.Submitted)
		return 1
	}
	if n := deadLetters.Len(); n > 0 {
		fmt.Printf("fleetd: %d dead-lettered shares by reason: %v\n", n, deadLetters.ByReason())
	}
	return exitCode
}

// parseDay accepts YYYY-MM-DD or a bare day index.
func parseDay(s string) simtime.Day {
	d := simtime.Day(-1)
	if t, err := time.Parse("2006-01-02", s); err == nil {
		d = simtime.FromTime(t)
	} else if idx, err := strconv.Atoi(s); err == nil {
		d = simtime.Day(idx)
	} else {
		fmt.Fprintf(os.Stderr, "fleetd: bad day %q (want YYYY-MM-DD or index)\n", s)
		os.Exit(2)
	}
	if !d.Valid() {
		fmt.Fprintf(os.Stderr, "fleetd: %s outside the observation window (%s – %s)\n",
			s, simtime.Day(0), simtime.Day(simtime.NumDays-1))
		os.Exit(2)
	}
	return d
}
