package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/capstore"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// The replicated store's HTTP surface, served by cmd/capring: the
// capstore front door (capstore/frontdoor.go — /ingest, /query and
// /count, parsed, answered and failed by the code a single capd runs)
// over the ring as its Backend, plus what only a ring serves:
//
//	GET  /ring      placement: nodes, states, segment → replicas
//	GET  /healthz   writer snapshot (never load-shed)
//	POST /compact   the pack-engine admin trigger, fanned out to every
//	                node (never load-shed)
//
// Through this backend an ordered /ingest answers 503 + Retry-After on
// a missed write quorum as well as on reorder shedding — the batch is
// committed but not yet safe on W replicas, so the pusher must retry
// (it re-waits on the same commit), not ack — and /query and /count
// hide replica failover from the client.

// ringBackend puts the ring behind the front door: commits are the
// Writer's, reads the Reader's.
type ringBackend struct {
	*Writer
	rd *Reader
}

// errShardOnRing refuses shard=N: segments are read on the storage
// nodes that hold them, and answering for the whole ring instead would
// be silently wrong.
var errShardOnRing = fmt.Errorf("%w: shard=N reads one storage node's segment, not a ring's", capstore.ErrBadRequest)

func (b ringBackend) Stream(ctx context.Context, r capstore.Read, fn func(line []byte) bool) error {
	if r.Shard >= 0 {
		return errShardOnRing
	}
	return b.rd.query(ctx, r.Query, 0, 0, fn)
}

func (b ringBackend) Count(ctx context.Context, r capstore.Read) (int64, error) {
	if r.Shard >= 0 {
		return 0, errShardOnRing
	}
	n, err := b.rd.count(ctx, r.Query)
	return int64(n), err
}

// Handler exposes the writer and its reader: the front door plus /ring.
// NewResilientHandler is this behind a limiter, with /healthz and
// /compact outside it.
func Handler(w *Writer) http.Handler {
	door := capstore.FrontDoor{Backend: ringBackend{w, w.Reader()}}
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", door.ServeIngest)
	mux.HandleFunc("/query", door.ServeQuery)
	mux.HandleFunc("/count", door.ServeCount)
	mux.HandleFunc("/ring", w.handleRing)
	return mux
}

// NewResilientHandler is the whole capring surface with graceful
// degradation, as capstore.NewResilientHandler is capd's: Handler
// behind a concurrency limiter (429 + Retry-After past maxInFlight,
// requestTimeout per admitted request, 0 disables), and /healthz and
// /compact outside it — probes and admin triggers must work exactly
// when the ring is shedding.
func NewResilientHandler(w *Writer, maxInFlight int, requestTimeout time.Duration) http.Handler {
	lim := resilience.NewHTTPLimiter(resilience.HTTPLimiterConfig{
		MaxInFlight: maxInFlight,
		Timeout:     requestTimeout,
	})
	mux := http.NewServeMux()
	mux.Handle("/healthz", HealthzHandler(w))
	mux.HandleFunc("/compact", w.handleCompact)
	mux.Handle("/", lim.Wrap(Handler(w)))
	return mux
}

// HealthzHandler answers the writer snapshot; mount it outside any
// limiter so probes are never shed. With metrics registered the
// payload carries the capd-style telemetry digest (uptime + slowest
// quorum-wait buckets), so capstore.Client.Health round-trips it.
func HealthzHandler(w *Writer) http.Handler {
	started := time.Now()
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		st := w.Stats()
		status := "ok"
		for _, n := range st.Nodes {
			if !n.Up || n.Dirty {
				status = "degraded"
			}
		}
		var tel *obs.TelemetrySummary
		if w.cfg.Registry != nil {
			tel = obs.Summarize(time.Since(started), w.m.quorumSeconds.Snapshot(), 3)
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(struct { //nolint:errcheck
			Status string `json:"status"`
			Stats
			Telemetry *obs.TelemetrySummary `json:"telemetry,omitempty"`
		}{Status: status, Stats: st, Telemetry: tel})
	})
}

// handleCompact fans POST /compact out to every node — one call
// compacts the whole ring. Per-node failures are reported, not fatal (a
// down node compacts on its own at restart or via its background
// compactor).
func (w *Writer) handleCompact(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rw.Header().Set("Allow", http.MethodPost)
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	type nodeResult struct {
		Node          string `json:"node"`
		PackedRecords int64  `json:"packed_records"`
		Packs         int    `json:"packs"`
		Error         string `json:"error,omitempty"`
	}
	results := make([]nodeResult, len(w.nodes))
	var wg sync.WaitGroup
	for i, n := range w.nodes {
		wg.Add(1)
		go func(res *nodeResult, n *node) {
			defer wg.Done()
			res.Node = n.name
			cr, err := n.cl.Compact()
			if err != nil {
				res.Error = err.Error()
				return
			}
			res.PackedRecords, res.Packs = cr.PackedRecords, cr.Packs
		}(&results[i], n)
	}
	wg.Wait()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]any{"nodes": results}) //nolint:errcheck
}

// RingInfo is the /ring payload: the deterministic placement plus the
// writer's live view of each node.
type RingInfo struct {
	Seed     uint64       `json:"seed"`
	Replicas int          `json:"replicas"`
	Shards   int          `json:"shards"`
	Nodes    []NodeStatus `json:"nodes"`
	// Placement maps segment index → placed node names, primary first.
	Placement [][]string `json:"placement"`
}

func (w *Writer) handleRing(rw http.ResponseWriter, r *http.Request) {
	info := RingInfo{
		Seed:     w.cfg.Seed,
		Replicas: w.ring.Replicas(),
		Shards:   w.cfg.Shards,
		Nodes:    w.Stats().Nodes,
	}
	for s := 0; s < w.cfg.Shards; s++ {
		info.Placement = append(info.Placement, w.ring.PlaceSegment(s))
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(info) //nolint:errcheck
}
