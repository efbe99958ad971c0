// Package agg is the fleet-wide observability aggregator behind
// cmd/obsd: it scrapes every node's /metrics.json and /debug/trace on
// an interval, folds the scrapes into cluster rollups (sum/max and
// quantile-mergeable histograms, with per-node and per-role
// breakdowns), assembles cross-process traces out of the exported
// span streams, and evaluates declarative SLO rules with fast/slow
// burn-rate windows.
//
// The aggregator is pull-based for long-lived nodes (capd, capring,
// consentd) and push-based for ephemeral ones: fleetd and crawl
// workers POST their span export to /ingest/spans right before they
// exit, because a scrape cadence would miss a process that lives for
// seconds. Both paths feed the same trace table, which dedups by
// canonical span line — the replica layer intentionally produces
// byte-identical ingest spans on every node of a placement, and the
// dedup collapses them back into one logical span.
package agg

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Target names one scrape endpoint: a node identity, its role (the
// tracer Service it exports spans under), and the base URL of its obs
// debug surface.
type Target struct {
	Name string `json:"name"`
	Role string `json:"role"`
	URL  string `json:"url"`
}

// Config parameterizes the aggregator.
type Config struct {
	// Targets are the nodes to scrape.
	Targets []Target
	// Interval paces Run's scrape loop (default 5s).
	Interval time.Duration
	// Clock supplies scrape timestamps — injectable so SLO windows and
	// trace watermarks are testable without sleeping (default time.Now).
	Clock func() time.Time
	// Rules are the SLO rules evaluated after every scrape.
	Rules []Rule
	// TraceCap bounds retained assembled traces; beyond it the
	// stalest traces (by watermark) are evicted (default 4096).
	TraceCap int
	// TraceTTL evicts a trace that saw no new span for this long —
	// the watermark that bounds how long orphaned spans wait for a
	// parent that will never arrive (default 10 minutes).
	TraceTTL time.Duration
	// Registry, when non-nil, receives the aggregator's own metrics
	// (scrape counts, span ingest counts, trace table state).
	Registry *obs.Registry
}

// scrapeClient fetches every target's /metrics.json and /debug/trace.
var scrapeClient = &http.Client{Timeout: 10 * time.Second}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.TraceCap <= 0 {
		c.TraceCap = 4096
	}
	if c.TraceTTL <= 0 {
		c.TraceTTL = 10 * time.Minute
	}
	return c
}

// nodeScrape is the latest state of one target.
type nodeScrape struct {
	target   Target
	families []obs.ExpositionFamily
	up       bool
	lastErr  string
	lastAt   time.Time
}

// Aggregator is the obsd core. Safe for concurrent use: the scrape
// loop and the HTTP surface share it.
type Aggregator struct {
	cfg    Config
	mu     sync.Mutex
	nodes  map[string]*nodeScrape // by target name
	order  []string               // target names, config order
	traces *traceTable
	slo    *sloState

	scrapes       *obs.CounterVec
	scrapeFails   *obs.CounterVec
	spansIngested *obs.Counter
	spansDeduped  *obs.Counter
}

// New builds an aggregator.
func New(cfg Config) (*Aggregator, error) {
	cfg = cfg.withDefaults()
	a := &Aggregator{
		cfg:    cfg,
		nodes:  make(map[string]*nodeScrape, len(cfg.Targets)),
		traces: newTraceTable(cfg.TraceCap, cfg.TraceTTL),
		slo:    newSLOState(cfg.Rules),
	}
	for _, t := range cfg.Targets {
		if t.Name == "" || t.URL == "" {
			return nil, fmt.Errorf("agg: target needs name and url, got %+v", t)
		}
		if _, dup := a.nodes[t.Name]; dup {
			return nil, fmt.Errorf("agg: duplicate target name %q", t.Name)
		}
		a.nodes[t.Name] = &nodeScrape{target: t}
		a.order = append(a.order, t.Name)
	}
	reg := cfg.Registry
	a.scrapes = obs.NewCounterVec(reg, "obsd_scrapes_total", "Successful scrapes per node.", "node")
	a.scrapeFails = obs.NewCounterVec(reg, "obsd_scrape_failures_total", "Failed scrapes per node.", "node")
	a.spansIngested = obs.NewCounter(reg, "obsd_spans_ingested_total", "Span lines accepted into the trace table.")
	a.spansDeduped = obs.NewCounter(reg, "obsd_spans_deduped_total", "Span lines dropped as exact duplicates (re-scrapes and replica fan-out).")
	if reg != nil {
		obs.NewGaugeFunc(reg, "obsd_traces", "Assembled traces currently retained.",
			func() float64 { return float64(a.traces.len()) })
		obs.NewGaugeFunc(reg, "obsd_traces_evicted_total", "Traces evicted by cap or TTL watermark.",
			func() float64 { return float64(a.traces.evicted()) })
		obs.NewGaugeFunc(reg, "obsd_alerts_firing", "SLO rules currently firing.",
			func() float64 { return float64(a.slo.firing()) })
	}
	return a, nil
}

// ScrapeOnce scrapes every target once and re-evaluates the SLO
// rules — the unit the Run loop repeats, exported so tests drive the
// aggregator without a ticker.
func (a *Aggregator) ScrapeOnce() {
	now := a.cfg.Clock()
	for _, t := range a.cfg.Targets {
		fams, ferr := a.scrapeMetrics(t)
		serr := a.scrapeSpans(t, now)
		a.mu.Lock()
		ns := a.nodes[t.Name]
		ns.lastAt = now
		if ferr == nil && serr == nil {
			ns.families = fams
			ns.up = true
			ns.lastErr = ""
			a.mu.Unlock()
			a.scrapes.With(t.Name).Inc()
			continue
		}
		ns.up = false
		if ferr != nil {
			ns.lastErr = ferr.Error()
		} else {
			ns.lastErr = serr.Error()
		}
		a.mu.Unlock()
		a.scrapeFails.With(t.Name).Inc()
	}
	a.traces.sweep(now)
	a.slo.observe(now, a.Rollup())
}

// Run scrapes on the configured interval until stop is closed.
func (a *Aggregator) Run(stop <-chan struct{}) {
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	a.ScrapeOnce()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			a.ScrapeOnce()
		}
	}
}

func (a *Aggregator) scrapeMetrics(t Target) ([]obs.ExpositionFamily, error) {
	resp, err := scrapeClient.Get(t.URL + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil, fmt.Errorf("agg: %s /metrics.json: %s", t.Name, resp.Status)
	}
	return obs.ParseJSONExposition(resp.Body)
}

func (a *Aggregator) scrapeSpans(t Target, now time.Time) error {
	resp, err := scrapeClient.Get(t.URL + "/debug/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return fmt.Errorf("agg: %s /debug/trace: %s", t.Name, resp.Status)
	}
	return a.ingestSpans(resp.Body, now)
}

// IngestSpans accepts an NDJSON span export (the POST /ingest/spans
// body — how ephemeral fleetd and worker processes deliver their spans
// before exiting).
func (a *Aggregator) IngestSpans(r io.Reader) error {
	return a.ingestSpans(r, a.cfg.Clock())
}

func (a *Aggregator) ingestSpans(r io.Reader, now time.Time) error {
	added, deduped, err := a.traces.ingest(r, now)
	a.spansIngested.Add(int64(added))
	a.spansDeduped.Add(int64(deduped))
	return err
}

// NodeStatus is one target's scrape state in /cluster/healthz.
type NodeStatus struct {
	Name      string  `json:"name"`
	Role      string  `json:"role"`
	Up        bool    `json:"up"`
	LastError string  `json:"last_error,omitempty"`
	AgeSecs   float64 `json:"scrape_age_seconds"`
}

// Health is the /cluster/healthz document.
type Health struct {
	Status       string       `json:"status"` // "ok" or "degraded"
	Nodes        []NodeStatus `json:"nodes"`
	Traces       int          `json:"traces"`
	AlertsFiring int          `json:"alerts_firing"`
}

// Health snapshots the aggregator.
func (a *Aggregator) Health() Health {
	now := a.cfg.Clock()
	h := Health{Status: "ok", Traces: a.traces.len(), AlertsFiring: a.slo.firing()}
	a.mu.Lock()
	for _, name := range a.order {
		ns := a.nodes[name]
		st := NodeStatus{Name: ns.target.Name, Role: ns.target.Role, Up: ns.up, LastError: ns.lastErr}
		if !ns.lastAt.IsZero() {
			st.AgeSecs = now.Sub(ns.lastAt).Seconds()
		}
		if !ns.up {
			h.Status = "degraded"
		}
		h.Nodes = append(h.Nodes, st)
	}
	a.mu.Unlock()
	if h.AlertsFiring > 0 {
		h.Status = "degraded"
	}
	return h
}

// snapshotNodes copies the latest per-node scrape results in config
// order.
func (a *Aggregator) snapshotNodes() []*nodeScrape {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*nodeScrape, 0, len(a.order))
	for _, name := range a.order {
		ns := a.nodes[name]
		out = append(out, &nodeScrape{target: ns.target, families: ns.families, up: ns.up})
	}
	return out
}

// sortedKeys is the deterministic map-iteration helper used across
// the rollup and trace renderers.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
