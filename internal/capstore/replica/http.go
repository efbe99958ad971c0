package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/obs"
)

// The replicated store's HTTP surface, served by cmd/capring. It
// mirrors a single capd closely enough that the fleet and capq talk to
// either interchangeably:
//
//	POST /ingest            unordered batch, committed in arrival order
//	POST /ingest?at=S&n=N   ordered fleet commit; 503 + Retry-After on
//	                        reorder shedding or a missed write quorum
//	GET  /query?…           merged stream across segments, replica
//	                        failover hidden from the client
//	GET  /count?…           {"count": N}
//	GET  /ring              placement: nodes, states, segment → replicas
//	GET  /healthz           writer snapshot (never load-shed)

// maxIngestBody mirrors capstore.IngestConfig's default body cap.
const maxIngestBody = 64 << 20

// Handler exposes the writer and its reader. Wrap it in a
// resilience.HTTPLimiter (as cmd/capring does) to bound concurrency;
// /healthz should be mounted outside the limiter.
func Handler(w *Writer) http.Handler {
	rd := w.Reader()
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(rw http.ResponseWriter, r *http.Request) { handleIngest(w, rw, r) })
	mux.HandleFunc("/query", func(rw http.ResponseWriter, r *http.Request) { handleQuery(rd, rw, r) })
	mux.HandleFunc("/count", func(rw http.ResponseWriter, r *http.Request) { handleCount(rd, rw, r) })
	mux.HandleFunc("/ring", func(rw http.ResponseWriter, r *http.Request) { handleRing(w, rw, r) })
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

func handleIngest(w *Writer, rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "replica: /ingest wants POST", http.StatusMethodNotAllowed)
		return
	}
	values := r.URL.Query()
	ordered := values.Get("at") != "" || values.Get("n") != ""
	var at, n int64
	if ordered {
		var err error
		if at, err = strconv.ParseInt(values.Get("at"), 10, 64); err != nil || at < 0 {
			http.Error(rw, fmt.Sprintf("replica: bad at=%q", values.Get("at")), http.StatusBadRequest)
			return
		}
		if n, err = strconv.ParseInt(values.Get("n"), 10, 64); err != nil || n <= 0 {
			http.Error(rw, fmt.Sprintf("replica: bad n=%q", values.Get("n")), http.StatusBadRequest)
			return
		}
	}
	body := http.MaxBytesReader(rw, r.Body, maxIngestBody)
	rr := capturedb.NewRecordReader(body)
	var caps []*capture.Capture
	for {
		c, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			http.Error(rw, "replica: bad ingest body: "+err.Error(), http.StatusBadRequest)
			return
		}
		caps = append(caps, c)
	}
	var res capstore.IngestResult
	var err error
	trace := r.Header.Get(obs.TraceparentHeader)
	if ordered {
		res, err = w.RecordBatchAtTrace(trace, at, n, caps)
	} else {
		res, err = w.RecordBatchTrace(trace, caps)
	}
	switch {
	case errors.Is(err, capstore.ErrIngestShed):
		rw.Header().Set("Retry-After", "1")
		http.Error(rw, "replica: ingest reorder buffer full, retry", http.StatusServiceUnavailable)
		return
	case errors.Is(err, ErrQuorumTimeout):
		// Committed but not yet safe on W replicas: the pusher must
		// retry (it will re-wait on the same commit), not ack.
		rw.Header().Set("Retry-After", "1")
		http.Error(rw, "replica: write quorum not reached, retry", http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(rw, "replica: "+err.Error(), http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(res) //nolint:errcheck
}

// flushEvery matches capstore's streaming cadence.
const flushEvery = 256

func handleQuery(rd *Reader, rw http.ResponseWriter, r *http.Request) {
	q, limit, offset, err := capstore.ParseHTTPQuery(r.URL.Query())
	if err != nil {
		http.Error(rw, "replica: "+err.Error(), http.StatusBadRequest)
		return
	}
	rw.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := rw.(http.Flusher)
	sent := 0
	var werr error
	qerr := rd.query(r.Context(), q, limit, offset, func(c *capture.Capture) bool {
		line, err := capturedb.Encode(c)
		if err == nil {
			_, err = rw.Write(line)
		}
		if err != nil {
			werr = err
			return false
		}
		sent++
		if flusher != nil && sent%flushEvery == 0 {
			flusher.Flush()
		}
		return true
	})
	if qerr != nil && sent == 0 && werr == nil {
		http.Error(rw, "replica: "+qerr.Error(), http.StatusServiceUnavailable)
		return
	}
	if qerr != nil && sent > 0 && werr == nil {
		// Mid-stream replica exhaustion: the status line is gone; cut
		// the connection so the client sees a torn stream, not a clean
		// short read.
		panic(http.ErrAbortHandler)
	}
}

func handleCount(rd *Reader, rw http.ResponseWriter, r *http.Request) {
	q, _, _, err := capstore.ParseHTTPQuery(r.URL.Query())
	if err != nil {
		http.Error(rw, "replica: "+err.Error(), http.StatusBadRequest)
		return
	}
	n, err := rd.count(r.Context(), q)
	if err != nil {
		http.Error(rw, "replica: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]int{"count": n}) //nolint:errcheck
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

func handleRing(w *Writer, rw http.ResponseWriter, r *http.Request) {
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
