package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analytics"
	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/crawler"
	"repro/internal/decision"
	"repro/internal/fleet"
	"repro/internal/gvl"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

// sizes is every size the harness fixes. Two instances exist: full,
// the measured benchmark, and smoke, the sub-ten-second pass that
// keeps the correctness checks running under go test.
type sizes struct {
	Domains      int `json:"domains"`
	SharesPerDay int `json:"shares_per_day"`
	Days         int `json:"days"`

	MinTailBytes int64 `json:"compact_min_tail_bytes"`

	PushBatch int `json:"push_batch"`
	QueryPool int `json:"query_pool"`
	CodecRecs int `json:"codec_sample_records"`

	Population int `json:"consent_population"`
	CacheCap   int `json:"consent_cache_capacity"`
	Bodies     int `json:"consent_bodies"`
	Decisions  int `json:"consent_decisions_per_window"`
}

// full is sized so that one window of each workload lasts about a
// second on two cores and a ten-second run measures eight or more of
// them; the acceptance driver makes 92 runs inside 57 minutes, set-up
// included, which is what bounds the corpus at twelve days.
var full = sizes{
	Domains: 10_000, SharesPerDay: 2000, Days: 4,
	MinTailBytes: 64 << 10,
	PushBatch:    64, QueryPool: 96, CodecRecs: 10_000,
	Population: 24_576, CacheCap: 8192, Bodies: 256, Decisions: 2_000_000,
}

var smoke = sizes{
	Domains: 500, SharesPerDay: 200, Days: 1,
	MinTailBytes: 16 << 10,
	PushBatch:    16, QueryPool: 12, CodecRecs: 100,
	Population: 1024, CacheCap: 256, Bodies: 16, Decisions: 20_000,
}

// runConfig is what fleetd serves on /config: the crawl parameters
// every worker and the single-process baseline share.
func runConfig(seed uint64, sz sizes, ingestURL string) fleet.RunConfig {
	return fleet.RunConfig{
		WorldSeed: seed, WorldDomains: sz.Domains, CrawlSeed: seed,
		RetryAttempts: 2, PolitenessMS: 1, IngestURL: ingestURL,
	}
}

// query is one entry of the archive_mixed query pool, with the match
// counts a correct answer must lie between: the linear-Match count
// over the preloaded prefix and over the whole corpus.
type query struct {
	Q      capturedb.Query
	Rows   bool // fetch rows through /query; otherwise /count
	Lo, Hi int
}

// pipelineInputs is what the three capture-pipeline workloads run on.
type pipelineInputs struct {
	world  *webworld.World
	items  []fleet.WorkItem
	corpus []*capture.Capture // the canonical commit order

	base      *capstore.Store // the single-process baseline store
	manifest  capstore.Manifest
	views     map[string][]byte  // analytics.BatchEngine over the baseline
	userBytes int64              // canonical encoded stream bytes
	sweep     []*capture.Capture // the corpus in the order a full sweep returns it

	preload int // records archive_mixed loads before its window
	queries []query
}

// consentInputs is what consent_decide runs on.
type consentInputs struct {
	pop      *decision.Population
	resolver *decision.Resolver
}

type inputs struct {
	seed     uint64
	sz       sizes
	dir      string
	pipeline *pipelineInputs
	consent  *consentInputs
}

func (in *inputs) close() {
	if in.pipeline != nil {
		in.pipeline.base.Close()
	}
	os.RemoveAll(in.dir)
}

// buildInputs constructs, from the seed alone, everything the named
// workloads need. The program under test sees only these values.
func buildInputs(seed uint64, sz sizes, dir string, workloads []string) (*inputs, error) {
	in := &inputs{seed: seed, sz: sz, dir: dir}
	for _, w := range workloads {
		var err error
		switch {
		case w == "consent_decide" && in.consent == nil:
			in.consent, err = buildConsent(seed, sz)
		case w != "consent_decide" && in.pipeline == nil:
			in.pipeline, err = buildPipeline(seed, sz, filepath.Join(dir, "baseline"))
		}
		if err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

// crawlBaseline is the single-process reference run: one worker, the
// whole window in feed order, every capture to every sink.
func crawlBaseline(world *webworld.World, rc fleet.RunConfig, items []fleet.WorkItem, sink capture.Sink) {
	// The fleet crawls each lease through a fresh platform; retry
	// jitter and vantage are keyed by (seed, url, day), so one platform
	// over the whole window records the same captures.
	p := crawler.NewStreamPlatform(world, crawler.StreamConfig{
		Seed: rc.CrawlSeed, Workers: 1, QueueDepth: 64,
		PerDomainDelay: time.Duration(rc.PolitenessMS) * time.Millisecond,
		Retry: resilience.RetryPolicy{
			MaxAttempts: rc.RetryAttempts, BaseDelay: time.Millisecond,
			MaxDelay: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.5,
		},
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(context.Background(), sink)
	}()
	for _, it := range items {
		// Submit fails only on cancellation or after Close.
		p.Submit(context.Background(), it.Day, socialfeed.Share{URL: it.URL, Domain: it.Domain}) //nolint:errcheck
	}
	p.Close()
	<-done
}

func buildPipeline(seed uint64, sz sizes, baseDir string) (*pipelineInputs, error) {
	p := &pipelineInputs{}
	p.world = webworld.New(webworld.Config{Seed: seed, Domains: sz.Domains})
	feed := socialfeed.New(p.world, socialfeed.Config{Seed: seed, SharesPerDay: sz.SharesPerDay})
	p.items = fleet.WorkFromFeed(feed, 0, simtime.Day(sz.Days-1))

	base, err := capstore.Create(baseDir, numShards)
	if err != nil {
		return nil, err
	}
	p.base = base
	mem := capture.NewMemStore()
	crawlBaseline(p.world, runConfig(seed, sz, ""), p.items, capture.MultiSink{mem, base})
	if err := base.Flush(); err != nil {
		return nil, err
	}
	p.corpus = mem.All()
	if len(p.corpus) < 4*sz.PushBatch {
		return nil, fmt.Errorf("corpus of %d records is too small for %d-record batches", len(p.corpus), sz.PushBatch)
	}
	if p.manifest, err = base.Manifest(); err != nil {
		return nil, err
	}
	for _, seg := range p.manifest.Segments {
		p.userBytes += seg.Bytes
	}
	eng, err := analytics.BatchEngine(base, analytics.Config{})
	if err != nil {
		return nil, err
	}
	if p.views, err = eng.SnapshotAll(); err != nil {
		return nil, err
	}
	for s := 0; s < numShards; s++ {
		for _, c := range p.corpus {
			if capstore.ShardOf(c.FinalDomain, numShards) == s {
				p.sweep = append(p.sweep, c)
			}
		}
	}
	p.preload = len(p.corpus) / 3 / sz.PushBatch * sz.PushBatch
	p.queries = buildQueries(seed, sz, p.corpus, p.preload)
	return p, nil
}

// buildQueries draws the archive_mixed pool — 70 % by final domain,
// 20 % by request host, 10 % by day range and vantage — from keys the
// corpus actually holds, and bounds each by linear Match.
func buildQueries(seed uint64, sz sizes, corpus []*capture.Capture, preload int) []query {
	r := rng.New(seed).Derive("bench-queries").Stream("pool")
	pick := func() *capture.Capture { return corpus[r.Intn(len(corpus))] }
	out := make([]query, 0, sz.QueryPool)
	for len(out) < sz.QueryPool {
		var q query
		switch draw := r.Float64(); {
		case draw < 0.7:
			q = query{Q: capturedb.Query{Domain: pick().FinalDomain}, Rows: true}
		case draw < 0.9:
			c := pick()
			if len(c.Requests) == 0 {
				continue
			}
			q = query{Q: capturedb.Query{RequestHost: c.Requests[r.Intn(len(c.Requests))].Host}}
		default:
			from := simtime.Day(r.Intn(sz.Days))
			to := from + simtime.Day(r.Intn(sz.Days-int(from)))
			q = query{Q: capturedb.Query{From: from, To: to, HasTo: true, Vantage: pick().Vantage.Name}}
		}
		for i, c := range corpus {
			if q.Q.Match(c) {
				q.Hi++
				if i < preload {
					q.Lo++
				}
			}
		}
		out = append(out, q)
	}
	return out
}

func buildConsent(seed uint64, sz sizes) (*consentInputs, error) {
	pop, err := decision.GeneratePopulation(decision.PopulationConfig{Seed: seed, Size: sz.Population})
	if err != nil {
		return nil, err
	}
	// The GVL history consentd generates at start-up, with its flag
	// defaults.
	h := gvl.GenerateHistory(gvl.HistoryConfig{Seed: seed, Versions: 215, PeakVendors: 650})
	h2 := gvl.UpgradeHistory(h, gvl.V2UpgradeConfig{FlexibleSeed: seed, FlexibleProb: 0.25})
	return &consentInputs{pop: pop, resolver: decision.NewResolver(h2)}, nil
}
