package capstore

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/simtime"
)

// The paper's "custom query API" over HTTP, served by cmd/capd:
//
//	GET /query?domain=D&host=H&vantage=V&from=D1&to=D2&failed=1&limit=N&offset=M
//	    → streaming NDJSON, one capturedb wire-format record per line
//	GET /count?…same filters…   → {"count": N}
//	GET /stats                  → Stats JSON (shards, indexes, counters)
//
// from/to are simulation day numbers (simtime.Day); a present `to`
// parameter makes the upper bound explicit even for day 0.

// flushEvery is how many streamed rows go out between explicit
// http.Flusher flushes, so long queries stream instead of buffering.
const flushEvery = 256

// NewHandler exposes a store over HTTP.
func NewHandler(s *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/count", s.handleCount)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/manifest", s.handleManifest)
	mux.HandleFunc("/segment", s.handleSegment)
	return mux
}

// ServeConfig parameterizes the degradation-hardened handler.
type ServeConfig struct {
	// MaxInFlight bounds concurrent query handling; excess load is
	// shed with 429 + Retry-After (default 64).
	MaxInFlight int
	// RequestTimeout bounds each admitted request via its context;
	// streaming queries are torn off mid-stream at the deadline rather
	// than buffered (default 30s, negative disables).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies; the API is GET-only, so any
	// body is hostile (default 1 MiB).
	MaxBodyBytes int64
	// Registry, when non-nil, receives the limiter's admission metrics
	// (in-flight, shed). Mount obs.Handler on the same outer mux —
	// outside this handler's limiter — to scrape them.
	Registry *obs.Registry
	// Metrics, when non-nil, is the store's per-query recorder; its
	// latency histogram feeds the /healthz telemetry summary.
	Metrics *StoreMetrics
	// Now is the uptime clock for /healthz telemetry, injectable for
	// deterministic tests (default time.Now).
	Now func() time.Time
	// Ingester, when non-nil, contributes the ingest commit cursor and
	// counters to /healthz, so operators can compare the store cursor
	// against analyzed view lag without scraping /metrics.
	Ingester *Ingester
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Health is the /healthz payload: store and admission-queue state,
// plus a telemetry summary when the handler was built with metrics.
type Health struct {
	Status         string                  `json:"status"` // "ok" or "saturated"
	Records        int64                   `json:"records"`
	Segments       int                     `json:"segments"`
	TruncatedTails int64                   `json:"truncated_tails"`
	QueriesServed  int64                   `json:"queries_served"`
	Limiter        resilience.LimiterStats `json:"limiter"`
	// Ingest reports the ingest path (commit cursor, accepted counts)
	// when the node serves /ingest.
	Ingest    *IngestStats     `json:"ingest,omitempty"`
	Telemetry *HealthTelemetry `json:"telemetry,omitempty"`
}

// HealthTelemetry summarizes the live registry for health probes that
// don't want to parse a full /metrics exposition.
type HealthTelemetry struct {
	// UptimeSeconds counts from handler construction.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// SlowestQueryBuckets are the highest-latency non-empty buckets of
	// the query-latency histogram, slowest first, at most three.
	SlowestQueryBuckets []QueryBucket `json:"slowest_query_buckets,omitempty"`
}

// QueryBucket is one histogram bucket in the health summary.
type QueryBucket struct {
	// LE is the bucket's inclusive upper bound in seconds ("+Inf" for
	// the overflow bucket).
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// slowestBuckets converts a cumulative snapshot back to per-bucket
// counts and returns the n highest non-empty ones, slowest first.
func slowestBuckets(snap obs.HistogramSnapshot, n int) []QueryBucket {
	counts := make([]int64, len(snap.Buckets))
	var prev int64
	for i, b := range snap.Buckets {
		counts[i] = b.Count - prev
		prev = b.Count
	}
	var out []QueryBucket
	for i := len(counts) - 1; i >= 0 && len(out) < n; i-- {
		if counts[i] > 0 {
			out = append(out, QueryBucket{LE: snap.Buckets[i].Label, Count: counts[i]})
		}
	}
	return out
}

// NewResilientHandler exposes the store with graceful degradation: a
// concurrency limiter shedding load with 429 + Retry-After,
// per-request timeouts, a request-body cap, and a /healthz endpoint
// (outside the limiter — health probes must not be shed) reporting
// store and queue state.
func NewResilientHandler(s *Store, cfg ServeConfig) http.Handler {
	cfg = cfg.withDefaults()
	lim := resilience.NewHTTPLimiter(resilience.HTTPLimiterConfig{
		MaxInFlight: cfg.MaxInFlight,
		Timeout:     cfg.RequestTimeout,
	})
	lim.RegisterMetrics(cfg.Registry)
	started := cfg.Now()
	core := http.MaxBytesHandler(NewHandler(s), cfg.MaxBodyBytes)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		h := Health{
			Status:         "ok",
			Records:        st.Records,
			Segments:       len(st.Shards),
			TruncatedTails: st.TruncatedTails,
			QueriesServed:  st.QueriesServed,
			Limiter:        lim.Stats(),
		}
		if lim.Saturated() {
			h.Status = "saturated"
		}
		if cfg.Ingester != nil {
			ist := cfg.Ingester.Stats()
			h.Ingest = &ist
		}
		if cfg.Metrics != nil {
			h.Telemetry = &HealthTelemetry{
				UptimeSeconds:       cfg.Now().Sub(started).Seconds(),
				SlowestQueryBuckets: slowestBuckets(cfg.Metrics.QuerySeconds.Snapshot(), 3),
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(h) //nolint:errcheck
	})
	mux.Handle("/", lim.Wrap(core))
	return mux
}

// parseShard reads an optional shard=N parameter; -1 means absent.
func parseShard(values url.Values) (int, error) {
	v := values.Get("shard")
	if v == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return -1, fmt.Errorf("bad shard=%q", v)
	}
	return n, nil
}

// ParseHTTPQuery translates URL parameters into the shared Query type
// plus pagination bounds — exported so the replicated front end
// (internal/capstore/replica) speaks the exact same query dialect.
func ParseHTTPQuery(values url.Values) (q capturedb.Query, limit, offset int, err error) {
	return parseHTTPQuery(values)
}

// parseHTTPQuery translates URL parameters into the shared Query type
// plus pagination bounds.
func parseHTTPQuery(values url.Values) (q capturedb.Query, limit, offset int, err error) {
	q.Domain = values.Get("domain")
	q.RequestHost = values.Get("host")
	q.Vantage = values.Get("vantage")
	switch v := values.Get("failed"); v {
	case "", "0", "false":
	case "1", "true":
		q.IncludeFailed = true
	default:
		return q, 0, 0, fmt.Errorf("bad failed=%q", v)
	}
	atoi := func(key string) (int, bool, error) {
		v := values.Get(key)
		if v == "" {
			return 0, false, nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, false, fmt.Errorf("bad %s=%q", key, v)
		}
		return n, true, nil
	}
	if n, ok, aerr := atoi("from"); aerr != nil {
		return q, 0, 0, aerr
	} else if ok {
		q.From = simtime.Day(n)
	}
	if n, ok, aerr := atoi("to"); aerr != nil {
		return q, 0, 0, aerr
	} else if ok {
		q.To, q.HasTo = simtime.Day(n), true
	}
	if n, _, aerr := atoi("limit"); aerr != nil {
		return q, 0, 0, aerr
	} else if n < 0 {
		return q, 0, 0, fmt.Errorf("bad limit=%d", n)
	} else {
		limit = n
	}
	if n, _, aerr := atoi("offset"); aerr != nil {
		return q, 0, 0, aerr
	} else if n < 0 {
		return q, 0, 0, fmt.Errorf("bad offset=%d", n)
	} else {
		offset = n
	}
	return q, limit, offset, nil
}

// parseRead reads a /query or /count request: the query dialect plus
// the optional shard=N parameter as the shard range [lo, hi) to run it
// over — one segment, the replicated read path's unit of fan-out, or,
// when absent, the whole store.
func (s *Store) parseRead(values url.Values) (q capturedb.Query, limit, offset, lo, hi int, err error) {
	if q, limit, offset, err = parseHTTPQuery(values); err != nil {
		return
	}
	shard, err := parseShard(values)
	switch {
	case err != nil:
	case shard < 0:
		hi = len(s.shards)
	case shard >= len(s.shards):
		err = fmt.Errorf("no shard %d (store has %d)", shard, len(s.shards))
	default:
		lo, hi = shard, shard+1
	}
	return
}

// handleQuery streams matches as NDJSON with limit/offset pagination;
// with shard=N, offset paginates within that segment's stream. The
// request context is honoured between rows (see ctxEvery), so long
// streams degrade by being cut, not by buffering forever.
func (s *Store) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, limit, offset, lo, hi, err := s.parseRead(r.URL.Query())
	if err != nil {
		http.Error(w, "capstore: "+err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	ctx := r.Context()
	sent, seen := 0, 0
	var werr error
	_, qerr := s.run(ctx, lo, hi, q, func(c *capture.Capture) bool {
		seen++
		if seen <= offset {
			return true
		}
		line, err := capturedb.Encode(c)
		if err == nil {
			_, err = w.Write(line)
		}
		if err != nil {
			werr = err
			return false
		}
		sent++
		if flusher != nil && sent%flushEvery == 0 {
			flusher.Flush()
		}
		return limit == 0 || sent < limit
	})
	if qerr == nil && werr == nil {
		return
	}
	timedOut := ctx.Err() != nil
	switch {
	case sent > 0 && (werr == nil || timedOut):
		// Mid-stream failure or timeout: the status line is gone; cut
		// the connection so the client sees a torn stream, not a clean
		// end.
		panic(http.ErrAbortHandler)
	case sent == 0 && timedOut:
		// Deadline hit before the first row went out: a clean 503.
		http.Error(w, "capstore: request timed out", http.StatusServiceUnavailable)
	case sent == 0 && werr == nil:
		http.Error(w, "capstore: "+qerr.Error(), http.StatusInternalServerError)
	}
}

// handleCount answers {"count": N}; shard=N restricts to one segment.
// A count that has to read records honours the request context as
// /query does and answers 503 once it has expired.
func (s *Store) handleCount(w http.ResponseWriter, r *http.Request) {
	q, _, _, lo, hi, err := s.parseRead(r.URL.Query())
	if err != nil {
		http.Error(w, "capstore: "+err.Error(), http.StatusBadRequest)
		return
	}
	n, err := s.run(r.Context(), lo, hi, q, nil)
	switch {
	case err != nil && r.Context().Err() != nil:
		http.Error(w, "capstore: request timed out", http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, "capstore: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int64{"count": n}) //nolint:errcheck
}

// handleManifest answers the store's per-segment content summary.
// With shard=N&n=M it answers the prefix manifest of shard N's first
// M records — the repair loop's prefix-verification probe.
func (s *Store) handleManifest(w http.ResponseWriter, r *http.Request) {
	values := r.URL.Query()
	shard, err := parseShard(values)
	if err != nil {
		http.Error(w, "capstore: "+err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if shard < 0 {
		m, err := s.Manifest()
		if err != nil {
			http.Error(w, "capstore: "+err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(m) //nolint:errcheck
		return
	}
	n, err := strconv.Atoi(values.Get("n"))
	if err != nil || n < 0 {
		http.Error(w, fmt.Sprintf("capstore: bad n=%q", values.Get("n")), http.StatusBadRequest)
		return
	}
	sm, err := s.PrefixManifest(shard, n)
	if err != nil {
		http.Error(w, "capstore: "+err.Error(), http.StatusBadRequest)
		return
	}
	json.NewEncoder(w).Encode(sm) //nolint:errcheck
}

// handleSegment streams the raw wire-format bytes of one segment's
// records [from, current) — the repair re-stream source. The output
// is directly acceptable to a peer's /ingest.
func (s *Store) handleSegment(w http.ResponseWriter, r *http.Request) {
	values := r.URL.Query()
	shard, err := parseShard(values)
	if err != nil || shard < 0 {
		http.Error(w, "capstore: /segment needs shard=N", http.StatusBadRequest)
		return
	}
	from := 0
	if v := values.Get("from"); v != "" {
		if from, err = strconv.Atoi(v); err != nil || from < 0 {
			http.Error(w, fmt.Sprintf("capstore: bad from=%q", v), http.StatusBadRequest)
			return
		}
	}
	// Validate bounds before the status line goes out, so parameter
	// errors are clean 400s rather than torn streams.
	if shard >= len(s.shards) {
		http.Error(w, fmt.Sprintf("capstore: no shard %d (store has %d)", shard, len(s.shards)), http.StatusBadRequest)
		return
	}
	if count, _, err := s.segmentRange(shard); err != nil {
		http.Error(w, "capstore: "+err.Error(), http.StatusInternalServerError)
		return
	} else if from > count {
		http.Error(w, fmt.Sprintf("capstore: %s has %d records, stream from %d requested", segName(shard), count, from), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, _, err := s.StreamShard(shard, from, w); err != nil {
		// The status line is gone; tear the connection so the client
		// sees a torn stream rather than a clean short read.
		panic(http.ErrAbortHandler)
	}
}

// handleStats answers the store snapshot.
func (s *Store) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats()) //nolint:errcheck
}
