package capstore

import (
	"time"

	"repro/internal/obs"
)

// rowBuckets grade per-query row counts: 1, 4, 16, … ~260k.
var rowBuckets = obs.ExponentialBuckets(1, 4, 10)

// StoreMetrics is the store's per-query recorder: latency and
// rows-scanned/skipped histograms. A nil *StoreMetrics (what
// NewStoreMetrics returns for a nil registry) is the no-op recorder.
// The latency histogram also feeds the /healthz telemetry summary —
// see obs.Summarize.
type StoreMetrics struct {
	// QuerySeconds is the wall time of one Query call, dispatch to
	// completion.
	QuerySeconds *obs.Histogram
	// RowsScanned and RowsSkipped are per-query distributions of
	// records read from disk vs. excluded by index or metadata
	// pruning (the cumulative totals live in Stats).
	RowsScanned *obs.Histogram
	RowsSkipped *obs.Histogram
	// Now is the query-latency clock, injectable for deterministic
	// tests (default time.Now).
	Now func() time.Time
}

// NewStoreMetrics registers the per-query metric families on reg;
// returns nil (the no-op recorder) when reg is nil.
func NewStoreMetrics(reg *obs.Registry) *StoreMetrics {
	if reg == nil {
		return nil
	}
	return &StoreMetrics{
		QuerySeconds: obs.NewHistogram(reg, "capstore_query_seconds",
			"Wall time of one store query, dispatch to completion.",
			obs.LatencyBuckets),
		RowsScanned: obs.NewHistogram(reg, "capstore_query_rows_scanned",
			"Records read from disk per query.", rowBuckets),
		RowsSkipped: obs.NewHistogram(reg, "capstore_query_rows_skipped",
			"Records excluded per query without a disk read (index and metadata pruning).",
			rowBuckets),
	}
}

func (m *StoreMetrics) now() time.Time {
	if m.Now != nil {
		return m.Now()
	}
	return time.Now()
}

// RegisterMetrics publishes the store's operational state on reg —
// cumulative counters mirroring Stats() plus index-shape gauges — and
// attaches a NewStoreMetrics per-query recorder to the store. Safe to
// call while queries and ingest are running.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	obs.NewCounterFunc(reg, "capstore_records_total",
		"Records ingested into the store.", s.counters.records.Load)
	obs.NewCounterFunc(reg, "capstore_queries_total",
		"Queries served.", s.counters.queries.Load)
	obs.NewCounterFunc(reg, "capstore_rows_scanned_total",
		"Records read from disk across all queries.", s.counters.rowsScanned.Load)
	obs.NewCounterFunc(reg, "capstore_rows_skipped_total",
		"Records excluded across all queries without a disk read.", s.counters.rowsSkipped.Load)
	obs.NewCounterFunc(reg, "capstore_truncated_tails_total",
		"Crash-torn segment tails detected and repaired at open.", s.counters.truncated.Load)
	// The shape gauges are read off Stats(), the one place the shards
	// are walked under their locks; a scrape pays that walk per gauge,
	// which only the scrape path ever does.
	shape := func(name, help string, of func(Stats) float64) {
		obs.NewGaugeFunc(reg, name, help, func() float64 { return of(s.Stats()) })
	}
	openedBy := func(st Stats, path string) float64 {
		n := 0
		for _, sh := range st.Shards {
			if sh.OpenPath == path {
				n++
			}
		}
		return float64(n)
	}
	shape("capstore_segments",
		"Segment files backing the store.",
		func(st Stats) float64 { return float64(len(st.Shards)) })
	shape("capstore_indexed_domains",
		"Final-domain posting keys across pack indexes and tail indexes.",
		func(st Stats) float64 { return float64(st.IndexedDomains) })
	shape("capstore_indexed_hosts",
		"Request-host posting keys across pack indexes and tail indexes.",
		func(st Stats) float64 { return float64(st.IndexedHosts) })
	shape("capstore_host_postings",
		"Total request-host posting-list entries.",
		func(st Stats) float64 { return float64(st.HostPostings) })

	// Pack engine.
	obs.NewCounterFunc(reg, "pack_compactions_total",
		"Tail-to-pack compactions completed.", s.counters.compactions.Load)
	obs.NewCounterFunc(reg, "pack_packed_records_total",
		"Records folded into packs by compaction.", s.counters.packedRecords.Load)
	obs.NewCounterFunc(reg, "pack_packed_bytes_total",
		"Wire bytes folded into packs by compaction.", s.counters.packedBytes.Load)
	obs.NewCounterFunc(reg, "pack_torn_quarantined_total",
		"Torn pack files quarantined aside at open.", s.counters.tornPacks.Load)
	obs.NewCounterFunc(reg, "pack_overlap_repairs_total",
		"Interrupted compactions completed at open by dropping the packed tail prefix.",
		s.counters.overlapRepairs.Load)
	obs.NewGaugeFunc(reg, "pack_pace_sleep_seconds_total",
		"Time the compactor slept to honor its write-pace bound.",
		func() float64 { return float64(s.counters.paceSleepNanos.Load()) / 1e9 })
	shape("pack_packs",
		"Pack files across all shards.",
		func(st Stats) float64 { return float64(st.Packs) })
	shape("pack_open_indexed_shards",
		"Shards whose last open loaded pack footer indexes instead of a full scan.",
		func(st Stats) float64 { return openedBy(st, openPath(true)) })
	shape("pack_open_scan_shards",
		"Shards whose last open fell back to a full segment scan.",
		func(st Stats) float64 { return openedBy(st, openPath(false)) })
	s.metrics.Store(NewStoreMetrics(reg))
}

// SetTracer attaches a tracer emitting one "query" span per Query
// call (attrs: access path at start; scanned/skipped row counts on
// completion). Safe to call while queries are running; nil detaches.
func (s *Store) SetTracer(tr *obs.Tracer) { s.tracer.Store(tr) }

// Metrics returns the attached per-query recorder, nil when telemetry
// is disabled.
func (s *Store) Metrics() *StoreMetrics { return s.metrics.Load() }
