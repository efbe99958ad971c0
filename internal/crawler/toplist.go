package crawler

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/browser"
	"repro/internal/capture"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

// Toplist campaign (Section 3.2, "Toplist-Based Web Measurement"):
// every toplist domain is converted to a crawlable seed URL by probing
// TLS and TCP reachability, then crawled six times in immediate
// succession — four configurations from a European university network
// plus US and EU cloud control captures.

// ProbeOutcome classifies the seed-URL probe of one domain.
type ProbeOutcome int

const (
	// ProbeHTTPSWWW: https://www.<domain>/ served a valid certificate.
	ProbeHTTPSWWW ProbeOutcome = iota
	// ProbeHTTPWWW: TLS failed but port 80 on www.<domain> connected.
	ProbeHTTPWWW
	// ProbeHTTPApex: only http://<domain>/ was usable.
	ProbeHTTPApex
	// ProbeUnreachable: no connection on either port after retries.
	ProbeUnreachable
)

func (o ProbeOutcome) String() string {
	switch o {
	case ProbeHTTPSWWW:
		return "https-www"
	case ProbeHTTPWWW:
		return "http-www"
	case ProbeHTTPApex:
		return "http-apex"
	default:
		return "unreachable"
	}
}

// ProbeResult is the seed URL decision for one toplist domain.
type ProbeResult struct {
	Domain  string
	Outcome ProbeOutcome
	SeedURL string // empty when unreachable
}

// SeedProbe determines the seed URL for a toplist domain, mirroring
// the paper's procedure: TLS to www:443 with hostname validation,
// falling back to TCP on :80, falling back to the apex; repeated three
// times over a week to catch temporarily unavailable domains (the
// simulation's unavailability is persistent, so one pass suffices).
func SeedProbe(w *webworld.World, domain string) ProbeResult {
	d := w.Domain(domain)
	if d == nil || d.Unreachable {
		return ProbeResult{Domain: domain, Outcome: ProbeUnreachable}
	}
	if d.HTTPSWWW {
		return ProbeResult{Domain: domain, Outcome: ProbeHTTPSWWW,
			SeedURL: fmt.Sprintf("https://www.%s/", domain)}
	}
	if d.HTTPWWW {
		// TLS to www:443 failed but plain HTTP on www:80 connected.
		return ProbeResult{Domain: domain, Outcome: ProbeHTTPWWW,
			SeedURL: fmt.Sprintf("http://www.%s/", domain)}
	}
	return ProbeResult{Domain: domain, Outcome: ProbeHTTPApex,
		SeedURL: fmt.Sprintf("http://%s/", domain)}
}

// ToplistConfig is one of the six capture configurations.
type ToplistConfig struct {
	Vantage capture.Vantage
	Opts    browser.Options
}

// ToplistConfigs returns the six configurations in the order of the
// Table 1 columns: US cloud, EU cloud, then the four EU-university
// configurations (default, extended timeout, German, British English).
// All toplist crawls store the DOM tree and full-page screenshots.
func ToplistConfigs() []ToplistConfig {
	return []ToplistConfig{
		{capture.USCloud, browser.Options{StoreDOM: true}},
		{capture.EUCloud, browser.Options{StoreDOM: true}},
		{capture.EUUniversity, browser.Options{StoreDOM: true}},
		{capture.EUUniversity, browser.Options{ExtendedTimeout: true, StoreDOM: true}},
		{capture.EUUniversity, browser.Options{Language: "de", ExtendedTimeout: true, StoreDOM: true}},
		{capture.EUUniversity, browser.Options{Language: "en-GB", ExtendedTimeout: true, StoreDOM: true}},
	}
}

// ConfigKey labels a (vantage, options) pair for result grouping.
func ConfigKey(tc ToplistConfig) string {
	return tc.Vantage.Name + "/" + tc.Opts.ConfigLabel()
}

// Campaign crawls a toplist snapshot.
type Campaign struct {
	World   *webworld.World
	Domains []string
	Day     simtime.Day
	// Workers is the crawl concurrency of Run. Zero or negative means
	// GOMAXPROCS. Results are byte-identical at any worker count.
	Workers int
}

// retryOffsets are the days after the snapshot on which unsuccessful
// captures are retried: "We retried all unsuccessful captures three
// times over the span of a week" (Section 3.2).
var retryOffsets = []simtime.Day{0, 2, 4, 7}

// Run executes the full six-configuration campaign, retrying
// unsuccessful captures over the following week. It returns one
// ordered capture list: toplist order, and within each domain the
// ToplistConfigs() order. Every capture carries its configuration
// (Vantage and Config), so a per-configuration view is a filter on
// analysis.ConfigKeyOf. Unreachable domains contribute no captures.
//
// The toplist is sharded into contiguous ranges across Workers
// goroutines. Each worker owns a private set of six per-config
// browsers and appends to a private slice; after the pool drains, the
// slices are concatenated in shard order. Because shards are
// contiguous, the result is byte-identical to a serial run at any
// worker count.
func (c *Campaign) Run() []*capture.Capture {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(c.Domains) {
		workers = len(c.Domains)
	}
	if workers < 1 {
		workers = 1
	}
	configs := ToplistConfigs()

	shards := make([][]*capture.Capture, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		// Contiguous shard bounds: the first (len % workers) shards get
		// one extra domain.
		lo := w * len(c.Domains) / workers
		hi := (w + 1) * len(c.Domains) / workers
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shards[w] = c.runShard(c.Domains[lo:hi], configs)
		}(w)
	}
	wg.Wait()

	var caps []*capture.Capture
	for _, sh := range shards {
		caps = append(caps, sh...)
	}
	return caps
}

// runShard crawls one contiguous toplist slice with a private browser
// set and returns its captures in order.
func (c *Campaign) runShard(domains []string, configs []ToplistConfig) []*capture.Capture {
	browsers := make([]*browser.Browser, len(configs))
	for i, tc := range configs {
		browsers[i] = browser.New(c.World, tc.Opts)
	}
	var out []*capture.Capture
	for _, domain := range domains {
		probe := SeedProbe(c.World, domain)
		if probe.Outcome == ProbeUnreachable {
			continue
		}
		for i, tc := range configs {
			var cap *capture.Capture
			for _, off := range retryOffsets {
				cap = browsers[i].Load(probe.SeedURL, c.Day+off, tc.Vantage)
				if !cap.Failed {
					break
				}
			}
			out = append(out, cap)
		}
	}
	return out
}
