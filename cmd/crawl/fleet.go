package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/capstore"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/webworld"
)

// fleetWorker runs the crawl as one node of a distributed fleet: it
// fetches the run parameters from the coordinator's /config (so seeds
// and budgets can never drift between nodes), rebuilds the synthetic
// world locally, then pulls leases until the window drains. Captures
// are pushed to the capd named by the coordinator; the crawl itself
// goes through the same StreamPlatform retry/politeness/vantage path
// as a single-process run — see DESIGN.md §9 for why that makes the
// fleet's store byte-identical to the baseline.
func fleetWorker(coordURL, id string) int {
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	coord := fleet.NewClient(coordURL)
	rc, err := coord.Config()
	if err != nil {
		fmt.Fprintf(os.Stderr, "crawl: fetching fleet config from %s: %v\n", coordURL, err)
		return 1
	}
	fmt.Printf("crawl: fleet worker %s: seed=%d domains=%d retries=%d politeness=%dms ingest=%s\n",
		id, rc.WorldSeed, rc.WorldDomains, rc.RetryAttempts, rc.PolitenessMS, rc.IngestURL)

	// The feed is materialized by the coordinator; workers only need
	// the world to crawl against.
	world := webworld.New(webworld.Config{Seed: rc.WorldSeed, Domains: rc.WorldDomains})

	// The ingest target may be a replicated ring that sheds with 503 +
	// Retry-After while a storage node revives or a quorum reforms.
	// Absorbing those client-side (on the fleet-wide retry budget, so
	// behaviour cannot drift between nodes) keeps a momentary replica
	// outage from failing the lease and dead-lettering its shares.
	ingest := capstore.NewClient(rc.IngestURL)
	ingest.Retry = resilience.RetryPolicy{MaxAttempts: rc.RetryAttempts}
	// When the run has an obsd aggregator, the worker traces its leases
	// and pushes the span export before exiting — workers are ephemeral,
	// a scrape cadence would miss them. Service is the role "worker",
	// never the worker id: per-process names would break byte-identical
	// trace assembly across worker counts.
	var tracer *obs.Tracer
	if rc.ObsURL != "" {
		tracer = obs.NewTracer(obs.TracerConfig{Service: "worker"})
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		ID:          id,
		Coordinator: coord,
		Push:        fleet.IngestPush(ingest),
		World:       world,
		Run:         rc,
		Tracer:      tracer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		return 1
	}
	defer func() {
		if rc.ObsURL == "" {
			return
		}
		if err := obs.PushSpans(http.DefaultClient, rc.ObsURL+"/ingest/spans", tracer); err != nil {
			fmt.Fprintf(os.Stderr, "crawl: fleet worker %s: span push: %v\n", id, err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Printf("crawl: fleet worker %s: interrupted\n", id)
			return 1
		}
		fmt.Fprintf(os.Stderr, "crawl: fleet worker %s: %v\n", id, err)
		return 1
	}
	fmt.Printf("crawl: fleet worker %s: window drained\n", id)
	return 0
}
