package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/crawler"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

// mkCapture fabricates capture i of the synthetic stream the pack and
// analytics scenarios ingest. i keys the idempotency identity, the
// domain (and so the shard), the day and the vantage; the studied CMPs
// cycle through the window with CMP-less pages and failed captures
// mixed in, so dedup, placement, day pruning, failed-row handling and
// the folds' skip paths are all exercised.
func mkCapture(i int) *capture.Capture {
	domain := fmt.Sprintf("site%d.example", i%29)
	c := &capture.Capture{
		SeedURL:     fmt.Sprintf("https://%s/p/%d", domain, i),
		FinalURL:    "https://" + domain + "/",
		FinalDomain: domain,
		Day:         simtime.Day((i * 7) % simtime.NumDays),
		Vantage:     capture.EUCloud,
		Config:      "default",
		Status:      200,
		Requests: []capture.Request{
			{Host: fmt.Sprintf("assets%d.example", i%5), Path: "/a.js", Status: 200, BytesRaw: 40 + i, BytesCompressed: 30 + i},
		},
	}
	if i%3 == 0 {
		c.Vantage = capture.USCloud
	}
	switch i % 7 {
	case 0: // CMP-less page
	case 1:
		c.Failed = true
		c.Error = "timeout"
		c.Status = 0
		c.Requests = nil
	default:
		id := cmps.ID(1 + i%int(cmps.Count))
		c.Requests = append(c.Requests, capture.Request{Host: id.Hostname(), Path: "/cmp.js", Status: 200})
	}
	return c
}

func mkCaptures(n int) []*capture.Capture {
	caps := make([]*capture.Capture, n)
	for i := range caps {
		caps[i] = mkCapture(i)
	}
	return caps
}

// ingestClient retries through a capd restart.
func ingestClient(url string) *capstore.Client {
	cl := capstore.NewClient(url)
	cl.Retry = resilience.RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 500 * time.Millisecond, Multiplier: 2}
	return cl
}

// push streams caps in order as unordered batches of the given size.
func push(cl *capstore.Client, caps []*capture.Capture, batch int) {
	for at := 0; at < len(caps); at += batch {
		end := min(at+batch, len(caps))
		if _, err := cl.RecordBatch(caps[at:end]); err != nil {
			fatalf("ingest batch at %d: %v", at, err)
		}
	}
}

// The fleet scenarios' crawl window. The baseline must crawl with
// exactly these parameters — every one of them is byte-affecting.
const (
	crawlSeed    = 7
	crawlRetries = 2
)

// crawlWindow is the part of the fixture that differs by scenario.
type crawlWindow struct {
	domains, shares, lastDay int // window [0, lastDay]
}

// bootFleet starts fleetd over the window, ingesting into ingestURL,
// and two `crawl -fleet` workers. The generous retry budget means a
// killed worker's or node's chunk is re-leased rather than
// dead-lettered (a dead chunk would — correctly — diverge from the
// baseline bytes); politeness and lease geometry are byte-neutral.
func bootFleet(ingestURL string, w crawlWindow, leaseTTL string, extra ...string) (fleetd, w1, w2 *proc) {
	fleetd = boot(bin("fleetd"), append([]string{"-ingest", ingestURL, "-addr", "127.0.0.1:0",
		"-seed", strconv.Itoa(crawlSeed), "-domains", strconv.Itoa(w.domains), "-shares", strconv.Itoa(w.shares),
		"-from", "0", "-to", strconv.Itoa(w.lastDay),
		"-lease-size", "8", "-lease-ttl", leaseTTL, "-retry-budget", "10",
		"-retries", strconv.Itoa(crawlRetries), "-breaker", "0", "-politeness", "1ms", "-metrics"}, extra...)...)
	w1 = start(bin("crawl"), "-fleet", fleetd.url(), "-worker-id", "smoke-w1")
	w2 = start(bin("crawl"), "-fleet", fleetd.url(), "-worker-id", "smoke-w2")
	return fleetd, w1, w2
}

// stopWorkers ends the crawl workers: one that was idle at the drain
// moment never sees a drained frame (fleetd is gone) and spins on the
// vanished coordinator, so SIGTERM is the normal teardown.
func stopWorkers(workers ...*proc) {
	for _, w := range workers {
		w.stop() //nolint:errcheck // may have drained and exited on its own
	}
}

// buildBaseline runs the single-process reference — fleet.CrawlItems
// over the whole window, which is what every worker runs per chunk —
// into a fresh store at dir: the canonical byte layout a fleet over the
// same window must reproduce. Retry budget, breaker setting and
// politeness mirror bootFleet's flags.
func buildBaseline(dir string, shards int, w crawlWindow) crawler.StreamStats {
	st, err := capstore.Create(dir, shards)
	check(err)
	world := webworld.New(webworld.Config{Seed: crawlSeed, Domains: w.domains})
	feed := socialfeed.New(world, socialfeed.Config{Seed: crawlSeed, SharesPerDay: w.shares})
	items := fleet.WorkFromFeed(feed, 0, simtime.Day(w.lastDay))
	run := fleet.RunConfig{CrawlSeed: crawlSeed, RetryAttempts: crawlRetries, PolitenessMS: 1}
	stats := fleet.CrawlItems(context.Background(), world, run, crawler.StreamConfig{}, items, st).Stats()
	if stats.Submitted != int64(len(items)) {
		fatalf("baseline submitted %d of %d items", stats.Submitted, len(items))
	}
	check(st.Close())
	logf("baseline: %d captured (%d failed-recorded), %d dead-lettered",
		stats.Succeeded+stats.FailedRecorded, stats.FailedRecorded, stats.DeadLettered)
	return stats
}

// readSegments loads the raw segment files of a store that must have
// exactly the given number of them.
func readSegments(dir string, shards int) [][]byte {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	check(err)
	if len(names) != shards {
		fatalf("%s holds %d segments, want %d", dir, len(names), shards)
	}
	segs := make([][]byte, shards)
	for s := range segs {
		data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("seg-%03d.jsonl", s)))
		check(err)
		segs[s] = data
	}
	return segs
}

// ledger is fleetd's final account.
type ledger struct {
	submitted, captures, dead, dropped, reassigned int64
}

var ledgerRe = regexp.MustCompile(`drained — submitted=(\d+) captures=(\d+) dead=(\d+) dropped=(\d+) \(leases=\d+ reassigned=(\d+)`)

// awaitLedger waits for fleetd to exit and parses its ledger line.
// fleetd exits 0 only when the window drained AND the ledger balances
// (captures+dead+dropped == submitted) — that check lives in fleetd.
func awaitLedger(fleetd *proc, d time.Duration) ledger {
	if err := fleetd.wait(d); err != nil {
		fatalf("fleetd: %v\n%s", err, fleetd.output())
	}
	m := ledgerRe.FindStringSubmatch(fleetd.output())
	if m == nil {
		fatalf("no ledger line in fleetd output:\n%s", fleetd.output())
	}
	var v [5]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(m[i+1], 10, 64)
	}
	return ledger{v[0], v[1], v[2], v[3], v[4]}
}

// checkLedger holds a clean drain's ledger against the baseline.
func checkLedger(l ledger, base crawler.StreamStats) {
	// The feed dedups (URL, day), so the window's real share count is
	// whatever the baseline submitted — not shares×days.
	if want := base.Succeeded + base.FailedRecorded + base.DeadLettered; l.submitted != want {
		fatalf("fleetd submitted %d shares, baseline window has %d", l.submitted, want)
	}
	if l.dropped != 0 {
		fatalf("fleetd dropped %d shares on a clean drain", l.dropped)
	}
	if l.captures != base.Succeeded+base.FailedRecorded {
		fatalf("fleet captured %d, baseline recorded %d", l.captures, base.Succeeded+base.FailedRecorded)
	}
	if l.dead != base.DeadLettered {
		fatalf("fleet dead-lettered %d, baseline %d", l.dead, base.DeadLettered)
	}
}

// metricValue extracts one sample from a text exposition. series is
// the sample's name with its label set, exactly as exposed.
func metricValue(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			check(err)
			return f
		}
	}
	fatalf("metric %s has no sample:\n%s", series, text)
	return 0
}

// requireMetrics fails unless text is valid exposition carrying every
// wanted family or sample.
func requireMetrics(who, text string, want ...string) {
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		fatalf("%s /metrics invalid: %v", who, err)
	}
	for _, w := range want {
		if !strings.Contains(text, w) {
			fatalf("%s /metrics missing %q:\n%s", who, w, text)
		}
	}
}
