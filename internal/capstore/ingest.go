package capstore

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Remote ingest: an Ingester turns a Store from a read-only query
// service into the fleet's storage backend — the commit half of the
// capd Backend behind the front door (frontdoor.go describes POST
// /ingest and its two delivery modes). Unordered batches append as they
// arrive with per-record idempotency; ordered batches commit through a
// Sequencer, whose buffer IngestConfig.MaxPendingBatches bounds.

// IngestKey is the per-share idempotency key, derived from the record
// itself: after feed dedup a (seed URL, day, configuration) triple
// identifies exactly one share, so re-delivered captures need no
// side-channel key to be recognized.
func IngestKey(c *capture.Capture) string {
	return string(appendIngestKey(nil, c.SeedURL, c.Day, c.Config))
}

// appendIngestKey appends the IngestKey of the record with these keys.
func appendIngestKey[S string | []byte](dst []byte, seed S, day simtime.Day, config S) []byte {
	dst = append(dst, seed...)
	dst = append(dst, '\x1f')
	dst = strconv.AppendInt(dst, int64(day), 10)
	dst = append(dst, '\x1f')
	return append(dst, config...)
}

// IngestConfig parameterizes an Ingester.
type IngestConfig struct {
	// MaxPendingBatches bounds the ordered-mode reorder buffer; an
	// out-of-order batch arriving past the bound is shed with 503
	// (default 64).
	MaxPendingBatches int
	// Registry, when non-nil, receives the ingest metric families.
	Registry *obs.Registry
	// Tracer, when non-nil, records an ingest span for every /ingest
	// request that arrives with a Traceparent header, parented to the
	// pusher's span — the capd end of the fleetd→worker→ring→capd
	// trace. Requests without the header stay unspanned.
	Tracer *obs.Tracer
	// OnCommit, when non-nil, observes every record the ingest path
	// appends to the store, in commit order, after idempotency dedup —
	// the subscription feed incremental consumers (analytics views)
	// fold record-by-record. The committed lines are decoded for it, and
	// only when it is set. It runs under the ingest lock so commit
	// order is exact; implementations must be fast and must not call
	// back into the ingester.
	OnCommit func(caps []*capture.Capture)
}

// IngestStats is a point-in-time snapshot of the ingest path.
type IngestStats struct {
	// Accepted counts records appended to the store.
	Accepted int64 `json:"accepted"`
	// Duplicates counts records dropped by idempotency — re-delivered
	// ordered ranges and repeated unordered keys alike.
	Duplicates int64 `json:"duplicates"`
	// Batches counts ingest requests that decoded successfully.
	Batches int64 `json:"batches"`
	// Shed counts out-of-order batches refused with 503.
	Shed int64 `json:"shed"`
	// NextSeq is the ordered-mode commit cursor: every work item below
	// it has been committed or skipped.
	NextSeq int64 `json:"next_seq"`
	// PendingBatches is the current reorder-buffer occupancy.
	PendingBatches int `json:"pending_batches"`
}

// IngestResult is the /ingest response body.
type IngestResult struct {
	// Accepted counts records of this request appended (ordered-mode
	// batches count on arrival, even if they commit later).
	Accepted int64 `json:"accepted"`
	// Duplicates counts records of this request dropped by idempotency.
	Duplicates int64 `json:"duplicates"`
	// Pending is the reorder-buffer occupancy after this request.
	Pending int `json:"pending"`
}

// Ingester applies remote batches to a Store with idempotency and
// (optionally) coordinator-ordered commit. It is an http.Handler for
// POST /ingest and safe for concurrent use.
type Ingester struct {
	store *Store
	cfg   IngestConfig

	mu    sync.Mutex
	seen  map[string]struct{}
	key   []byte // IngestKey scratch, under mu
	seq   *Sequencer
	stats IngestStats

	metrics ingestMetrics
}

// ingestMetrics is the nil-safe obs wiring (every field no-ops
// unregistered).
type ingestMetrics struct {
	records    *obs.Counter
	duplicates *obs.Counter
	batches    *obs.Counter
	shed       *obs.Counter
}

// NewIngester wraps a store for remote ingest. The idempotency index is
// seeded from the keys of the store's existing lines, so reopening a
// store and re-attaching an ingester keeps re-deliveries idempotent
// across capd restarts.
func NewIngester(s *Store, cfg IngestConfig) (*Ingester, error) {
	in := &Ingester{
		store: s,
		cfg:   cfg,
		seen:  make(map[string]struct{}),
		seq:   NewSequencer(cfg.MaxPendingBatches),
		metrics: ingestMetrics{
			records: obs.NewCounter(cfg.Registry, "capstore_ingest_records_total",
				"Records accepted over POST /ingest and appended to the store."),
			duplicates: obs.NewCounter(cfg.Registry, "capstore_ingest_duplicates_total",
				"Re-delivered records dropped by idempotency (per-key and per-range)."),
			batches: obs.NewCounter(cfg.Registry, "capstore_ingest_batches_total",
				"Ingest requests that decoded successfully."),
			shed: obs.NewCounter(cfg.Registry, "capstore_ingest_shed_total",
				"Out-of-order ordered batches refused with 503 at the reorder-buffer bound."),
		},
	}
	var (
		k    capturedb.Keys
		serr error
		n    int
	)
	_, err := s.run(context.Background(), 0, len(s.shards), capturedb.Query{IncludeFailed: true}, func(line []byte) bool {
		n++
		if _, serr = capturedb.Canonical(line, &k); serr != nil {
			serr = fmt.Errorf("capturedb: line %d: %w", n, serr)
			return false
		}
		in.key = appendIngestKey(in.key[:0], k.Seed, k.Day, k.Config)
		in.seen[string(in.key)] = struct{}{}
		return true
	})
	if err == nil {
		err = serr
	}
	if err != nil {
		return nil, fmt.Errorf("capstore: seeding ingest idempotency index: %w", err)
	}
	obs.NewGaugeFunc(cfg.Registry, "capstore_ingest_pending_batches",
		"Ordered batches waiting in the reorder buffer for their commit turn.",
		func() float64 { return float64(in.Stats().PendingBatches) })
	obs.NewGaugeFunc(cfg.Registry, "capstore_ingest_next_seq",
		"Ordered-ingest commit cursor: work items below it are committed or skipped.",
		func() float64 { return float64(in.Stats().NextSeq) })
	return in, nil
}

// Stats snapshots the ingest counters.
func (in *Ingester) Stats() IngestStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.stats
	st.NextSeq = in.seq.Next()
	st.PendingBatches = in.seq.Pending()
	return st
}

// apply appends b's lines with per-key idempotency. Callers hold in.mu.
func (in *Ingester) apply(b Batch) (accepted, dups int64) {
	var committed [][]byte
	for i, line := range b.Lines {
		k := &b.Keys[i]
		in.key = appendIngestKey(in.key[:0], k.Seed, k.Day, k.Config)
		if _, ok := in.seen[string(in.key)]; ok {
			dups++
			continue
		}
		in.seen[string(in.key)] = struct{}{}
		in.store.append(line, k)
		if in.cfg.OnCommit != nil {
			committed = append(committed, line)
		}
		accepted++
	}
	in.stats.Accepted += accepted
	in.stats.Duplicates += dups
	in.metrics.records.Add(accepted)
	in.metrics.duplicates.Add(dups)
	if len(committed) > 0 {
		in.onCommit(committed)
	}
	return accepted, dups
}

// onCommit decodes committed lines for IngestConfig.OnCommit. They were
// certified or re-encoded on the way in, so none fails to decode.
func (in *Ingester) onCommit(lines [][]byte) {
	caps := make([]*capture.Capture, 0, len(lines))
	for _, line := range lines {
		c, err := capturedb.Decode(line)
		if err != nil {
			in.store.fail(fmt.Errorf("capstore: decoding a committed record for OnCommit: %w", err))
			continue
		}
		caps = append(caps, c)
	}
	in.cfg.OnCommit(caps)
}

// Ingest applies one /ingest batch. An unordered batch is applied now,
// in order; an ordered one, covering work items [b.At, b.At+b.N),
// commits through the Sequencer: strictly in range order, and dropped
// whole as a duplicate delivery when its range is already committed or
// already waiting. The result accounts for this batch's records only,
// whatever else the push unblocked.
func (in *Ingester) Ingest(b Batch) (IngestResult, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	var res IngestResult
	if !b.Ordered {
		in.stats.Batches++
		in.metrics.batches.Inc()
		res.Accepted, res.Duplicates = in.apply(b)
		res.Pending = in.seq.Pending()
		return res, nil
	}
	outcome, err := in.seq.Offer(b, func(due Batch) {
		acc, dups := in.apply(due)
		if due.At == b.At {
			res.Accepted, res.Duplicates = acc, dups
		}
	})
	if err != nil {
		return res, err
	}
	res.Pending = in.seq.Pending()
	switch outcome {
	case Shed:
		in.stats.Shed++
		in.metrics.shed.Inc()
		return res, ErrIngestShed
	case Duplicate:
		res.Duplicates = int64(len(b.Lines))
		in.stats.Duplicates += res.Duplicates
		in.metrics.duplicates.Add(res.Duplicates)
	case Buffered:
		// Report the records as accepted even though the batch is still
		// waiting its turn: delivery is complete from the worker's
		// perspective, and duplicates of a waiting range are refused.
		res.Accepted = int64(len(b.Lines))
	}
	in.stats.Batches++
	in.metrics.batches.Inc()
	return res, nil
}

// IngestBatch applies an unordered batch of captures, each encoded
// once, returning how many records were appended vs. dropped as
// duplicates. A capture that cannot be encoded is left out, its error
// retained by the store as Store.Record retains it.
func (in *Ingester) IngestBatch(caps []*capture.Capture) IngestResult {
	res, _ := in.Ingest(in.batchOf(caps))
	return res
}

// IngestBatchAt is Ingest for the ordered batch covering work items
// [at, at+n); caps are the records those items produced (possibly fewer
// than n — dead-lettered items produce none — and possibly zero for a
// skip marker).
func (in *Ingester) IngestBatchAt(at int64, n int64, caps []*capture.Capture) (IngestResult, error) {
	b := in.batchOf(caps)
	b.Ordered, b.At, b.N = true, at, n
	return in.Ingest(b)
}

func (in *Ingester) batchOf(caps []*capture.Capture) Batch {
	b, err := BatchOf(caps)
	if err != nil {
		in.store.fail(err)
	}
	return b
}

// ServeHTTP implements POST /ingest.
func (in *Ingester) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	FrontDoor{storeBackend{in.store, in}}.ServeIngest(w, r)
}
