// Command analyze runs the full reproduction pipeline and prints every
// table and figure of the paper's evaluation: the social-media crawl,
// the toplist campaigns (Tables 1, A.3), the longitudinal analyses
// (Figures 4–6), the Global Vendor List series (Figures 7–8), and the
// consent-dialog experiments (Figures 9–10).
//
// Usage:
//
//	analyze [-quick] [-seed N] [-domains N] [-shares N] [-toplist N] [-workers N]
//	        [-telemetry]
//	analyze -store DIR [-views-out FILE]
//
// -quick runs at test scale (seconds); the default scale is ≈1/100 of
// the paper's capture volume and takes a few minutes. -telemetry meters
// the detector and dumps the Prometheus text exposition after the
// report.
//
// -store switches to batch-over-store mode: instead of simulating a
// world, analyze folds an existing capture store through the same
// incremental engine cmd/analyzed runs live and emits every
// materialized view as one JSON envelope ({"cursor":N,"views":{...}}).
// Each view's bytes are identical to what analyzed serves on
// /view/<name> at the same commit cursor — the byte-for-byte
// batch/incremental invariant the analytics tests enforce.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/analysis"
	"repro/internal/analytics"
	"repro/internal/capstore"
	"repro/internal/cmps"
	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simtime"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "run at reduced test scale")
		seed      = flag.Uint64("seed", 1, "root seed (bit-reproducible results per seed)")
		domains   = flag.Int("domains", 0, "override universe size")
		shares    = flag.Int("shares", 0, "override social-feed shares per day")
		topN      = flag.Int("toplist", 0, "override toplist size for rank analyses")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "campaign/crawl worker count")
		verbose   = flag.Bool("v", false, "print crawl progress")
		telemetry = flag.Bool("telemetry", false, "meter the run and dump the Prometheus exposition after the report")
		storeDir  = flag.String("store", "", "batch mode: fold this capture store through the analytics engine and emit the views as JSON")
		viewsOut  = flag.String("views-out", "", "with -store, write the views envelope here instead of stdout")
	)
	flag.Parse()

	if *storeDir != "" {
		if err := runStoreBatch(*storeDir, *viewsOut); err != nil {
			fmt.Fprintln(os.Stderr, "analyze:", err)
			os.Exit(1)
		}
		return
	}

	cfg := core.DefaultConfig()
	if *quick {
		cfg = core.TestConfig()
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *domains > 0 {
		cfg.Domains = *domains
	}
	if *shares > 0 {
		cfg.SharesPerDay = *shares
	}
	if *topN > 0 {
		cfg.ToplistSize = *topN
	}

	fmt.Printf("Building study: %d domains, %d shares/day, toplist %d, seed %d\n",
		cfg.Domains, cfg.SharesPerDay, cfg.ToplistSize, cfg.Seed)
	s := core.NewStudy(cfg)
	fmt.Printf("Toplist ID: %s (created %s, as the paper's list K8JW of 2020-01-30)\n",
		s.Toplist.ID, s.Toplist.Created)

	// A nil registry keeps every recorder in its no-op form.
	var reg *obs.Registry
	if *telemetry {
		reg = obs.NewRegistry()
		s.Detector.SetMetrics(detect.NewMetrics(reg))
	}

	fmt.Println("Crawling the social-media feed, March 2018 – September 2020 …")
	var lastPct int
	s.RunSocialCrawl(func(day simtime.Day, captures int64) {
		if !*verbose {
			return
		}
		pct := int(day) * 100 / simtime.NumDays
		if pct != lastPct && pct%5 == 0 {
			fmt.Fprintf(os.Stderr, "  %3d%%  %s  %d captures\n", pct, day, captures)
			lastPct = pct
		}
	})
	fmt.Printf("Captured %d pages from %d domains (multi-CMP overcount: %.4f%%)\n\n",
		s.Observations.Total, s.Observations.NumDomains(),
		100*float64(s.Observations.MultiCMP)/float64(s.Observations.Total))

	fmt.Println(report.PriorWork())

	// Tables 1 and A.3. The Table 1 campaign is crawled once and kept:
	// the customization, tracking and time-cost sections read it too.
	campaign := s.RunToplistCampaign(simtime.Table1Snapshot, cfg.ToplistSize)
	fmt.Println(report.VantageTable(
		"Table 1 — CMP occurrence in the toplist by vantage point (May 2020)",
		analysis.ComputeVantageTable(campaign, s.Detector)))
	fmt.Println(report.VantageTable(
		"Table A.3 — same measurement in January 2020",
		s.VantageTable(simtime.TableA3Snapshot, cfg.ToplistSize)))

	// Figure 5 and the historic variants.
	sizes := []int{100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000}
	ms, err := s.MarketShareByRank(simtime.Table1Snapshot, sizes)
	check(err)
	fmt.Println(report.MarketShare("Figure 5 / A.6 — cumulative CMP market share by toplist size (May 2020)", ms))
	for _, h := range []struct {
		title string
		day   simtime.Day
	}{
		{"Figure A.4 — market share by toplist size (January 2019)", simtime.Date(2019, 1, 15)},
		{"Figure A.5 — market share by toplist size (January 2020)", simtime.Date(2020, 1, 15)},
	} {
		pts, err := s.MarketShareByRank(h.day, sizes)
		check(err)
		fmt.Println(report.MarketShare(h.title, pts))
	}

	euuk := analysis.EUUKShare(s.Presence, simtime.Table1Snapshot)
	fmt.Printf("EU+UK TLD share (Section 4.1): Quantcast %.1f%% (paper 38.3%%), OneTrust %.1f%% (paper 16.3%%)\n\n",
		100*euuk[cmps.Quantcast], 100*euuk[cmps.OneTrust])

	// Figure 6.
	pts, err := s.AdoptionOverTime(cfg.ToplistSize, 7)
	check(err)
	fmt.Println(report.Adoption(
		fmt.Sprintf("Figure 6 — websites in the toplist top %d embedding a CMP", cfg.ToplistSize),
		pts, cfg.ToplistSize))

	// Spike detection: laws coming into effect drive adoption; fines
	// and guidance do not (Figure 6's qualitative claim, automated).
	spikes := analysis.DetectAdoptionSpikes(pts, 3)
	fmt.Println("Detected adoption spikes (growth ≥ 3× median monthly growth):")
	for _, sp := range spikes {
		fmt.Printf("  %s  +%d sites (%.1f× median)\n", sp.Month.Time().Format("2006-01"), sp.Growth, sp.Ratio)
	}
	for _, ev := range simtime.Events() {
		near := analysis.SpikeNear(spikes, ev.Day, 62)
		fmt.Printf("  event %-38s %-14s spike nearby: %v\n", ev.Name, "("+ev.Kind.String()+")", near)
	}
	fmt.Println()

	// Figure 4.
	flows, err := s.SwitchingFlows()
	check(err)
	fmt.Println(report.Flows(flows))
	fmt.Println(report.Retention(analysis.ComputeRetention(s.Presence)))

	// Section 3.5 missing data.
	top := s.Toplist.Top(cfg.ToplistSize)
	md := analysis.ComputeMissingData(s.World, top, s.Observations.Observed)
	fmt.Println(report.MissingData(md))

	// Item I3 customization.
	fmt.Println(report.Customization(s.Customization(campaign)))

	// Tracking context and subsite coverage (Sections 3.5 and 6).
	fmt.Println(report.Tracking(analysis.ComputeTracking(core.EUUniversityStore(campaign))))
	subsiteSample := top
	if len(subsiteSample) > 2_000 {
		subsiteSample = subsiteSample[:2_000]
	}
	fmt.Println(report.Subsites(analysis.CompareSubsiteCoverage(
		s.World, subsiteSample, simtime.Table1Snapshot, 4)))

	// Vantage coverage over time (continuous Tables 1/A.3).
	covTop := cfg.ToplistSize
	if covTop > 1_000 {
		covTop = 1_000
	}
	fmt.Println(report.CoverageSeries(s.CoverageSeries(
		simtime.Date(2019, 1, 1), simtime.Day(simtime.NumDays-1), covTop)))

	// Compliance audit (Matte-et-al classes; Section 6 related work).
	survey, err := s.ComplianceSurvey(simtime.Table1Snapshot, cfg.ToplistSize)
	check(err)
	fmt.Println(report.Compliance(survey))

	// Prompt-change history (Figure 1 annotation).
	fmt.Println(report.PromptChanges(s.PromptChanges()))

	// Figures 7 and 8.
	fmt.Println(report.GVLSeries(s.GVL.PurposeSeries()))
	fmt.Println(report.LegalBasisFlows(s.GVL))

	// Figures 9 and 10.
	fmt.Println(report.TrustArc(s.TrustArcOptOut()))
	exp, err := s.QuantcastExperiment()
	check(err)
	fmt.Println(report.Quantcast(exp))

	// Synthesis: the expected time cost of rejecting everywhere, from
	// this run's own measurements.
	optOutSec := consent.MedianTotalMS(s.TrustArcOptOut()) / 1000
	// Cost for a user browsing toplist-popular sites: use the top-10k
	// adoption point (or the largest available below it).
	adoptionAt := ms[0]
	for _, pt := range ms {
		if pt.Size <= cfg.ToplistSize {
			adoptionAt = pt
		}
	}
	fmt.Println(report.TimeCost(analysis.TimeCostFromMeasurements(
		adoptionAt, s.Customization(campaign),
		exp.DirectReject.MedianAcceptSec, exp.DirectReject.MedianRejectSec,
		exp.MoreOptions.MedianRejectSec, optOutSec)))

	if reg != nil {
		fmt.Printf("\nTelemetry (Prometheus exposition):\n")
		check(reg.WritePrometheus(os.Stdout))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

// runStoreBatch is the -store path: fold the whole store through the
// incremental engine and emit one JSON envelope with every view at
// the store's final commit cursor.
func runStoreBatch(dir, out string) error {
	store, err := capstore.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	eng, err := analytics.BatchEngine(store, analytics.Config{})
	if err != nil {
		return err
	}
	snaps, err := eng.SnapshotAll()
	if err != nil {
		return err
	}
	envelope := struct {
		Cursor int64                      `json:"cursor"`
		Views  map[string]json.RawMessage `json:"views"`
	}{Cursor: eng.Cursor(), Views: make(map[string]json.RawMessage, len(snaps))}
	for name, b := range snaps {
		envelope.Views[name] = b
	}
	b, err := json.Marshal(envelope)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	fmt.Fprintf(os.Stderr, "analyze: folded %d records into %d views from %s\n",
		eng.Cursor(), len(snaps), dir)
	if out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(out, b, 0o644)
}
