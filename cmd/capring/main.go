// Command capring fronts N capd storage nodes as one replicated
// capture store (DESIGN.md §11): deterministic ring placement, hinted
// handoff while a node is down, anti-entropy repair when it returns,
// and quorum-acknowledged writes — the fleet keeps ingesting and capq
// keeps answering through the loss of any single storage node.
//
// Usage:
//
//	capring -nodes node-0=http://127.0.0.1:8650,node-1=http://127.0.0.1:8651,node-2=http://127.0.0.1:8652 \
//	        -shards 16 [-replicas 2] [-quorum 1] [-seed 1] \
//	        [-addr 127.0.0.1:8660] [-handoff-dir DIR] [-metrics]
//
// Every node must be a capd started with -ingest against a store
// created with the same -shards count. The ring seed, replica count,
// and node names must be stable across restarts — placement is
// derived from them.
//
// Endpoints — /ingest, /query and /count are the capstore front door,
// the very handlers a single capd serves, over the ring as their
// backend, so fleetd workers and capq talk to either interchangeably:
//
//	POST /ingest           unordered batch (capturedb wire format)
//	POST /ingest?at=S&n=N  ordered fleet commit; 503 + Retry-After when
//	                       the reorder buffer sheds or the write quorum
//	                       is missed (the pusher retries, never drops)
//	GET  /query?…          streaming NDJSON, replica failover hidden
//	GET  /count?…          {"count": N}
//	GET  /ring             placement table and live node states
//	GET  /healthz          writer snapshot (never load-shed)
//	POST /compact          compact every node (never load-shed)
//
// With -metrics, /metrics and /metrics.json expose the repl_* family
// (per-node up/down gauges, handoff depth, repair volume, quorum
// latency) outside the limiter, so the ring stays observable while it
// is shedding.
//
// With -handoff-dir, hinted handoff is mirrored to a durable NDJSON
// log per node (torn-tail repair-on-open); hints survive a capring
// restart and are replayed on boot.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/capstore"
	"repro/internal/capstore/replica"
	"repro/internal/daemon"
)

func parseNodes(s string) ([]replica.NodeConfig, error) {
	var nodes []replica.NodeConfig
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad -nodes entry %q (want name=url)", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate node name %q", name)
		}
		seen[name] = true
		nodes = append(nodes, replica.NodeConfig{Name: name, URL: url})
	}
	// Deterministic placement must not depend on flag order.
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return nodes, nil
}

func main() { os.Exit(run()) }

// run is main with an exit code, so that deferred closes (the handoff
// logs) run before the process exits.
func run() int {
	var (
		nodesFlag  = flag.String("nodes", "", "comma-separated name=url storage nodes (required; capd -ingest instances)")
		shards     = flag.Int("shards", 0, "segment count the node stores were created with (required)")
		replicas   = flag.Int("replicas", 2, "replication factor R (each segment lives on R nodes)")
		quorum     = flag.Int("quorum", 1, "per-shard write quorum W (1..replicas)")
		seed       = flag.Uint64("seed", 1, "placement ring seed (must be stable across restarts)")
		addr       = flag.String("addr", "127.0.0.1:8660", "listen address")
		handoffDir = flag.String("handoff-dir", "", "mirror hinted handoff to durable NDJSON logs in this directory")
		maxHandoff = flag.Int("max-handoff", 256, "hinted-handoff batches queued per down node before it goes dirty (repair on return)")
		maxPending = flag.Int("ingest-pending", capstore.DefaultMaxPendingBatches, "ordered-ingest reorder batches buffered before shedding with 503")
		maxInFly   = flag.Int("max-inflight", 64, "concurrent requests served before shedding with 429")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables)")
		nodeTO     = flag.Duration("node-timeout", 10*time.Second, "per-node HTTP call deadline")
		quorumTO   = flag.Duration("quorum-timeout", 5*time.Second, "how long a push waits for its write quorum before 503")
		metrics    = flag.Bool("metrics", false, "expose /metrics and /metrics.json (outside the limiter)")
	)
	flag.Parse()
	if *nodesFlag == "" || *shards <= 0 {
		flag.Usage()
		return 2
	}
	nodes, err := parseNodes(*nodesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capring:", err)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "capring:", err)
		return 1
	}

	d := daemon.New("capring", *metrics, *metrics)
	w, err := replica.NewWriter(replica.Config{
		Nodes:             nodes,
		Shards:            *shards,
		Seed:              *seed,
		Replicas:          *replicas,
		Quorum:            *quorum,
		MaxPendingBatches: *maxPending,
		MaxHandoff:        *maxHandoff,
		HandoffDir:        *handoffDir,
		QuorumTimeout:     *quorumTO,
		NodeTimeout:       *nodeTO,
		Registry:          d.Registry,
		Tracer:            d.Tracer,
	})
	if err != nil {
		return fail(err)
	}
	defer w.Close()

	bound, err := d.Listen(*addr)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("capring: %d-node ring (R=%d, W=%d, seed %d, %d segments) on %s\n",
		len(nodes), *replicas, *quorum, *seed, *shards, bound)
	for _, n := range nodes {
		fmt.Printf("capring:   node %s at %s\n", n.Name, n.URL)
	}
	fmt.Printf("capring: endpoints /ingest /query /count /ring /healthz; ≤%d in flight; Ctrl-C shuts down gracefully.\n", *maxInFly)

	if *metrics {
		fmt.Printf("capring: telemetry on /metrics, /metrics.json, /debug/trace, /debug/pprof\n")
	}
	d.Handle("/", replica.NewResilientHandler(w, *maxInFly, *reqTimeout))
	if err := d.Serve(nil); err != nil {
		return fail(err)
	}
	st := w.Stats()
	fmt.Printf("capring: drained and stopped (%d records committed, next seq %d)\n", st.Committed, st.NextSeq)
	return 0
}
