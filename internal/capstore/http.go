package capstore

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// The capd HTTP surface: the front door (frontdoor.go) over this store,
// plus what only a storage node serves:
//
//	GET /stats                  → Stats JSON (shards, indexes, counters)
//	GET /manifest[?shard=N&n=M] → per-segment content summary
//	GET /segment?shard=N&from=M → raw wire-format records of one segment

// storeBackend is capd's Backend: reads run the store's per-shard
// plans, commits go through the ingester (nil on a read-only mount,
// which has no /ingest route).
type storeBackend struct {
	s  *Store
	in *Ingester
}

// Commit applies the batch under the node's ingest span — the capd end
// of the fleetd→worker→ring→capd trace — and flushes it.
func (b storeBackend) Commit(bt Batch) (res IngestResult, err error) {
	defer bt.Span(b.in.cfg.Tracer, "ingest").End()
	if res, err = b.in.Ingest(bt); err != nil {
		return res, err
	}
	if err := b.s.Flush(); err != nil {
		return res, fmt.Errorf("capstore: /ingest flush: %w", err)
	}
	return res, nil
}

// read runs r over the shard range it names — one segment or, without
// shard=N, the whole store; a nil fn counts.
func (b storeBackend) read(ctx context.Context, r Read, fn func(line []byte) bool) (int64, error) {
	lo, hi := 0, len(b.s.shards)
	switch {
	case r.Shard >= hi:
		return 0, badRequest("no shard %d (store has %d)", r.Shard, hi)
	case r.Shard >= 0:
		lo, hi = r.Shard, r.Shard+1
	}
	return b.s.run(ctx, lo, hi, r.Query, fn)
}

func (b storeBackend) Stream(ctx context.Context, r Read, fn func(line []byte) bool) error {
	_, err := b.read(ctx, r, fn)
	return err
}

func (b storeBackend) Count(ctx context.Context, r Read) (int64, error) {
	return b.read(ctx, r, nil)
}

// NewHandler exposes a store over HTTP.
func NewHandler(s *Store) http.Handler {
	door := FrontDoor{storeBackend{s: s}}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", door.ServeQuery)
	mux.HandleFunc("/count", door.ServeCount)
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
	Ingest *IngestStats `json:"ingest,omitempty"`
	// Telemetry is the uptime and the three slowest non-empty buckets
	// of the query-latency histogram, when the handler has metrics.
	Telemetry *obs.TelemetrySummary `json:"telemetry,omitempty"`
}

// maxQueryBody caps request bodies under the limiter; the API there is
// GET-only, so any body is hostile and 1 MiB is already generous.
const maxQueryBody = 1 << 20

// NewResilientHandler exposes the store with graceful degradation: a
// concurrency limiter shedding load with 429 + Retry-After,
// per-request timeouts, a request-body cap, and — outside the limiter,
// because probes and admin triggers must work exactly when the query
// path is saturated — /healthz reporting store and queue state and
// POST /compact forcing a full compaction pass.
func NewResilientHandler(s *Store, cfg ServeConfig) http.Handler {
	cfg = cfg.withDefaults()
	lim := resilience.NewHTTPLimiter(resilience.HTTPLimiterConfig{
		MaxInFlight: cfg.MaxInFlight,
		Timeout:     cfg.RequestTimeout,
	})
	lim.RegisterMetrics(cfg.Registry)
	started := cfg.Now()
	core := http.MaxBytesHandler(NewHandler(s), maxQueryBody)
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
			h.Telemetry = obs.Summarize(cfg.Now().Sub(started), cfg.Metrics.QuerySeconds.Snapshot(), 3)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(h) //nolint:errcheck
	})
	mux.HandleFunc("/compact", s.handleCompact)
	mux.Handle("/", lim.Wrap(core))
	return mux
}

// handleCompact folds every shard's tail into packs now and answers
// what the pass packed and the store's resulting pack shape.
func (s *Store) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	packed, err := s.CompactAll()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(CompactResult{PackedRecords: packed, Packs: st.Packs, Compactions: st.Compactions}) //nolint:errcheck
}

// handleManifest answers the store's per-segment content summary.
// With shard=N&n=M it answers the prefix manifest of shard N's first
// M records — the repair loop's prefix-verification probe.
func (s *Store) handleManifest(w http.ResponseWriter, r *http.Request) {
	values := r.URL.Query()
	shard, err := parseShard(values)
	if err != nil {
		writeError(w, r, err)
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
