package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"

	"repro/internal/decision"
)

// consentDecide drives consentd with decision.RunLoad: two
// connections, 512-decision NDJSON batches, Zipf-skewed strings from a
// population three times the compile cache, a fixed decision count per
// window.
type consentDecide struct {
	in  *inputs
	m   *recorder
	acc *layerAcc

	srv       *decision.Server
	front     *httptest.Server
	validated bool
}

func newConsentDecide(in *inputs, m *recorder, acc *layerAcc) workload {
	return &consentDecide{in: in, m: m, acc: acc}
}

func (c *consentDecide) prepare() (bool, error) {
	if c.srv != nil {
		return false, nil
	}
	c.srv = decision.NewServer(decision.ServerConfig{
		Resolver: c.in.consent.resolver,
		Cache:    decision.CacheConfig{Capacity: c.in.sz.CacheCap},
	})
	c.front = httptest.NewServer(c.m.wrap(
		func(*http.Request) (string, string) { return "decision.batch", "" },
		c.srv.Handler()))
	return true, nil
}

func (c *consentDecide) close() {
	if c.front != nil {
		c.front.Close()
		c.front = nil
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
}

func (c *consentDecide) load() decision.LoadConfig {
	return decision.LoadConfig{
		ServerURL: c.front.URL, Population: c.in.consent.pop, Seed: c.in.seed,
		Workers: 2, Decisions: c.in.sz.Decisions, BatchSize: 512, Bodies: c.in.sz.Bodies,
		ZipfExponent: 1.1,
	}
}

func (c *consentDecide) run() (*window, error) {
	cfg := c.load()
	before := c.srv.Cache().Stats()
	endRoot := c.m.start("bench.window", "")
	endLoad := c.m.start("decision.load", "")
	res, err := decision.RunLoad(cfg)
	endLoad()
	endRoot()
	if err != nil {
		return nil, err
	}
	after := c.srv.Cache().Stats()

	// Correctness: every answer line is BatchAnswerLen bytes, so the
	// decisions RunLoad parsed are exact byte counts — one per question
	// asked, each with a known basis; and on sampled bodies every
	// answer equals the naive reference decoder's.
	var bases int64
	for _, n := range res.Bases {
		bases += n
	}
	if res.Decisions != res.Requests*int64(cfg.BatchSize) || bases != res.Decisions {
		return nil, fmt.Errorf("%d requests of %d questions got %d answers (%d with a basis)",
			res.Requests, cfg.BatchSize, res.Decisions, bases)
	}
	if !c.validated {
		v, err := decision.ValidateAgainstNaive(cfg, c.in.consent.resolver, 8)
		if err != nil {
			return nil, err
		}
		if v.Mismatches != 0 || v.Checked != 8*cfg.BatchSize {
			return nil, fmt.Errorf("naive validation: %d of %d answers differ: %s", v.Mismatches, v.Checked, v.FirstMismatch)
		}
		c.validated = true
	}

	win := newWindow()
	win.wall, win.ops = res.Elapsed.Seconds(), float64(res.Decisions)
	win.vals["decisions_per_s"] = res.DecisionsPerSec
	win.vals["decide_batch_p50_ms"] = res.P50.Seconds() * 1e3
	win.attempted = int(res.Requests)
	if c.m != nil {
		hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
		c.acc.add("decision.hits", hits)
		c.acc.add("decision.compile_misses", misses)
		c.acc.add("decision.elapsed_s", res.Elapsed.Seconds())
		c.acc.val("decision.decide_batch_p99_ms", res.P99.Seconds()*1e3)
	}
	return win, nil
}

func (c *consentDecide) layers(r *result) {
	a := r.acc
	r.layer("decision.cache_hit_ratio", ratio(a.sum["decision.hits"], a.sum["decision.hits"]+a.sum["decision.compile_misses"]))
	r.layer("decision.compile_misses", a.sum["decision.compile_misses"])
	r.layer("decision.ns_per_decision", ratio(a.sum["decision.elapsed_s"]*1e9, r.ops))
	r.layer("decision.batch_busy_s", r.busy["decision.batch"])
	r.layer("decision.decide_batch_p99_ms", median(a.vals["decision.decide_batch_p99_ms"]))
}
