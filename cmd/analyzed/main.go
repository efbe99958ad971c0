// Command analyzed serves the paper's analyses as incrementally
// updated materialized views over a live capture store. It follows a
// capd/capring node (or a local store directory), folds every
// committed record through the analytics engine, checkpoints view
// state to disk, and serves the views over HTTP:
//
//	GET /views          → view catalog with the current commit cursor
//	GET /view/NAME      → one view's JSON snapshot (adoption, coverage,
//	                      marketshare, gvl)
//	GET /series/NAME    → the view's per-point series as NDJSON
//	GET /healthz        → cursor, per-shard cursors, lag, checkpoint
//
// Usage:
//
//	analyzed (-server URL | -store DIR) [-addr HOST:PORT]
//	         [-checkpoint DIR] [-checkpoint-every N]
//	         [-poll D] [-batch N] [-max-inflight N] [-timeout D]
//	         [-metrics]
//
// On startup analyzed resumes from the newest valid checkpoint (torn
// checkpoint files are skipped) and streams only the store suffix past
// the checkpointed cursor; with no checkpoint it bootstraps from the
// store's full contents. Views are defined at every ingest commit
// cursor and agree byte-for-byte with batch `analyze -store` run on a
// store truncated to the same cursor.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/analytics"
	"repro/internal/capstore"
	"repro/internal/daemon"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that the deferred store close runs
// before the process exits.
func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:8402", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		server    = flag.String("server", "", "capd/capring base URL to follow (e.g. http://127.0.0.1:8400)")
		storeDir  = flag.String("store", "", "local capture store directory to follow instead of -server")
		ckptDir   = flag.String("checkpoint", "", "directory for durable view-state checkpoints (empty = none)")
		ckptEvery = flag.Int64("checkpoint-every", 4096, "records between checkpoints")
		poll      = flag.Duration("poll", 250*time.Millisecond, "source poll interval")
		batchSize = flag.Int("batch", 256, "records folded per engine apply")
		maxInFly  = flag.Int("max-inflight", 64, "max concurrent view queries before shedding with 429")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-query timeout")
		metrics   = flag.Bool("metrics", false, "serve /metrics, /metrics.json and /debug endpoints")
	)
	flag.Parse()
	if (*server == "") == (*storeDir == "") {
		fmt.Fprintln(os.Stderr, "analyzed: exactly one of -server or -store is required")
		flag.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "analyzed:", err)
		return 1
	}

	d := daemon.New("analyzed", *metrics, *metrics)
	engine := analytics.NewEngine(analytics.Config{Registry: d.Registry, Tracer: d.Tracer})

	var source analytics.Source
	if *server != "" {
		source = analytics.ClientSource{Client: capstore.NewClient(*server)}
		fmt.Printf("analyzed: following %s\n", *server)
	} else {
		store, err := capstore.Open(*storeDir)
		if err != nil {
			return fail(err)
		}
		defer store.Close()
		source = analytics.StoreSource{Store: store}
		fmt.Printf("analyzed: following local store %s\n", *storeDir)
	}

	follower := analytics.NewFollower(analytics.FollowerConfig{
		Source:          source,
		Engine:          engine,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		PollInterval:    *poll,
		BatchSize:       *batchSize,
	})
	resumed, err := follower.Resume()
	if err != nil {
		return fail(fmt.Errorf("resume: %w", err))
	}
	if resumed >= 0 {
		fmt.Printf("analyzed: resumed from checkpoint at cursor %d\n", resumed)
	} else if *ckptDir != "" {
		fmt.Printf("analyzed: cold start (no checkpoint in %s), bootstrapping from store\n", *ckptDir)
	}

	bound, err := d.Listen(*addr)
	if err != nil {
		return fail(err)
	}
	if *metrics {
		fmt.Printf("analyzed: telemetry on /metrics, /metrics.json, /debug/trace, /debug/pprof/\n")
	}
	d.Handle("/", analytics.NewHandler(analytics.HandlerConfig{
		Engine:         engine,
		Follower:       follower,
		MaxInFlight:    *maxInFly,
		RequestTimeout: *timeout,
		Tracer:         d.Tracer,
	}, d.Registry))

	fmt.Printf("analyzed: serving %d views on %s\n", len(analytics.ViewNames()), bound)
	fmt.Printf("analyzed: endpoints /views /view/NAME /series/NAME /healthz; ≤%d in flight, %v/query; Ctrl-C shuts down gracefully.\n",
		*maxInFly, *timeout)

	followCtx, stopFollower := context.WithCancel(context.Background())
	followDone := make(chan struct{})
	go func() {
		defer close(followDone)
		follower.Run(followCtx)
	}()
	// The follower writes a final checkpoint on its way out, so a
	// clean restart resumes at exactly this cursor.
	err = d.Serve(nil, func() { stopFollower(); <-followDone })
	if err != nil {
		return fail(err)
	}
	fmt.Printf("analyzed: drained and stopped at cursor %d (lag %d)\n",
		engine.Cursor(), follower.Lag())
	return 0
}
