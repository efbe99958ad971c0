// Package core orchestrates the full reproduction: it wires the
// synthetic web, the social-media feed, the Netograph-style crawler,
// CMP detection, presence interpolation, the toplist campaigns, the
// GVL history, and the consent-dialog experiments into a single Study
// that can regenerate every table and figure of the paper.
package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/browser"
	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/compliance"
	"repro/internal/consent"
	"repro/internal/crawler"
	"repro/internal/detect"
	"repro/internal/gvl"
	"repro/internal/interp"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/toplist"
	"repro/internal/webworld"
)

// Config scales the study. The zero value is unusable; use
// DefaultConfig (paper-shaped, minutes of CPU) or TestConfig (seconds).
type Config struct {
	Seed uint64
	// Domains is the synthetic-web universe size.
	Domains int
	// SharesPerDay is the social-feed ingestion rate.
	SharesPerDay int
	// Workers is crawl concurrency.
	Workers int
	// ToplistSize is the Tranco-style list length used for rank-based
	// analyses (the paper uses the top 10k for Tables 1/A.3 and
	// Figure 6, and the top 1M for Figure 5).
	ToplistSize int
	// CrawlFrom / CrawlTo bound the social crawl; zero values mean the
	// full observation window.
	CrawlFrom, CrawlTo simtime.Day
}

// DefaultConfig is the full reproduction scale (≈1/100 of the paper's
// capture volume).
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Domains:      100_000,
		SharesPerDay: 2_000,
		Workers:      8,
		ToplistSize:  10_000,
		CrawlTo:      simtime.Day(simtime.NumDays - 1),
	}
}

// TestConfig is a reduced scale for unit and integration tests.
func TestConfig() Config {
	return Config{
		Seed:         1,
		Domains:      12_000,
		SharesPerDay: 400,
		Workers:      8,
		ToplistSize:  2_000,
		CrawlTo:      simtime.Day(simtime.NumDays - 1),
	}
}

// Study bundles the whole measurement apparatus.
type Study struct {
	Config   Config
	World    *webworld.World
	Feed     *socialfeed.Feed
	Detector *detect.Detector
	// Observations is the social crawl's sink: every capture folds into
	// it, and Presence is its snapshot.
	Observations *analysis.PresenceFold
	// Presence is available after RunSocialCrawl.
	Presence *analysis.PresenceDB
	// Toplist is the Tranco-style list (created 30 January 2020, as
	// in the paper).
	Toplist *toplist.List
	// GVL is the generated Global Vendor List history.
	GVL *gvl.History

	crawled bool
}

// NewStudy builds all components; no crawling happens yet.
func NewStudy(cfg Config) *Study {
	if cfg.Domains <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.CrawlTo == 0 {
		cfg.CrawlTo = simtime.Day(simtime.NumDays - 1)
	}
	world := webworld.New(webworld.Config{Seed: cfg.Seed, Domains: cfg.Domains})
	det := detect.Default()
	s := &Study{
		Config:       cfg,
		World:        world,
		Feed:         socialfeed.New(world, socialfeed.Config{Seed: cfg.Seed, SharesPerDay: cfg.SharesPerDay}),
		Detector:     det,
		Observations: analysis.NewPresenceFold(det, interp.Options{}),
		GVL:          gvl.GenerateHistory(gvl.HistoryConfig{Seed: cfg.Seed, Versions: 215, InitialVendors: 150, PeakVendors: 650}),
	}
	// The list covers the full universe so rank-based analyses can
	// slice any prefix (Figure 5 goes to the top 1M).
	s.Toplist = toplist.Build(toplist.Config{Seed: cfg.Seed, Size: cfg.Domains},
		simtime.TrancoListDate, world.TrueOrder())
	return s
}

// RunSocialCrawl executes the longitudinal social-media crawl — every
// feed day from CrawlFrom through CrawlTo submitted to one
// StreamPlatform that records into Observations — and builds the
// presence database. progress, if non-nil, is called once per day,
// after the day's shares are submitted. Workers record in completion
// order; the fold is order-independent, so the result is the same at
// any worker count.
func (s *Study) RunSocialCrawl(progress func(day simtime.Day, captures int64)) {
	p := crawler.NewStreamPlatform(s.World, crawler.StreamConfig{Seed: s.Config.Seed, Workers: s.Config.Workers})
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx, s.Observations)
	}()
	for day := s.Config.CrawlFrom; day <= s.Config.CrawlTo; day++ {
		for _, share := range s.Feed.Day(day) {
			// Submit fails only on a cancelled context or a stopped
			// platform, and neither can happen before Close.
			_ = p.Submit(ctx, day, share)
		}
		if progress != nil {
			progress(day, p.Captures())
		}
	}
	p.Close()
	<-done
	s.Presence = s.Observations.Presence()
	s.crawled = true
}

// RebuildPresence rebuilds the presence database with different
// interpolation options (ablations).
func (s *Study) RebuildPresence(opts interp.Options) *analysis.PresenceDB {
	return s.Observations.Rebuild(opts)
}

// RunToplistCampaign crawls the top-N toplist domains with all six
// vantage configurations at a snapshot day and returns the campaign's
// ordered capture list (see crawler.Campaign.Run). Every call crawls;
// a caller that needs one campaign for several analyses keeps the
// list. Crawl concurrency follows Config.Workers (≤0 means GOMAXPROCS).
func (s *Study) RunToplistCampaign(day simtime.Day, topN int) []*capture.Capture {
	c := &crawler.Campaign{
		World:   s.World,
		Domains: s.Toplist.Top(topN),
		Day:     day,
		Workers: s.Config.Workers,
	}
	return c.Run()
}

// VantageTable crawls the top-N campaign at day and computes Table 1
// (day = simtime.Table1Snapshot) or Table A.3 (day =
// simtime.TableA3Snapshot).
func (s *Study) VantageTable(day simtime.Day, topN int) *analysis.VantageTable {
	return analysis.ComputeVantageTable(s.RunToplistCampaign(day, topN), s.Detector)
}

// MarketShareByRank computes Figure 5/A.4–A.6 at a snapshot day.
func (s *Study) MarketShareByRank(day simtime.Day, sizes []int) ([]analysis.MarketSharePoint, error) {
	if err := s.needPresence(); err != nil {
		return nil, err
	}
	return analysis.MarketShareByRank(s.Presence, s.Toplist, day, sizes), nil
}

// AdoptionOverTime computes Figure 6 over the top-N toplist domains.
func (s *Study) AdoptionOverTime(topN, stepDays int) ([]analysis.AdoptionPoint, error) {
	if err := s.needPresence(); err != nil {
		return nil, err
	}
	return analysis.AdoptionOverTime(s.Presence, s.Toplist.Top(topN), stepDays), nil
}

// SwitchingFlows computes Figure 4.
func (s *Study) SwitchingFlows() (*analysis.FlowMatrix, error) {
	if err := s.needPresence(); err != nil {
		return nil, err
	}
	return analysis.SwitchingFlows(s.Presence), nil
}

// Customization computes the item-I3 statistics from the default
// EU-university captures of a toplist campaign.
func (s *Study) Customization(caps []*capture.Capture) map[cmps.ID]*analysis.CustomizationStats {
	return analysis.ComputeCustomization(EUUniversityStore(caps), s.Detector)
}

func (s *Study) needPresence() error {
	if !s.crawled {
		return fmt.Errorf("core: social crawl has not run; call RunSocialCrawl first")
	}
	return nil
}

// CoverageSeries computes the monthly vantage-coverage series over the
// toplist top-N (the continuous version of Tables 1 and A.3).
func (s *Study) CoverageSeries(from, to simtime.Day, topN int) []analysis.CoveragePoint {
	days := analysis.MonthlyDays(from, to)
	return analysis.CoverageSeries(func(day simtime.Day) *analysis.VantageTable {
		return s.VantageTable(day, topN)
	}, days)
}

// ComplianceSurvey audits every toplist top-N site running a TCF CMP
// at the day for the Matte-et-al violation classes.
func (s *Study) ComplianceSurvey(day simtime.Day, topN int) (*compliance.SurveyResult, error) {
	auditor := compliance.New(s.World)
	return auditor.Survey(s.Toplist.Top(topN), day)
}

// PromptChanges recovers each CMP's prompt-change history from a
// longitudinal series of dialog captures (Figure 1's annotation): the
// EU-university browser visits dialog-showing sites of each CMP weekly
// across the window and counts the distinct prompt revisions in the
// stored DOMs.
func (s *Study) PromptChanges() map[cmps.ID]int {
	b := browser.New(s.World, browser.Options{StoreDOM: true})
	// Precompute dialog-showing candidate sites per CMP, cheapest-rank
	// first, so the weekly loop only checks episode coverage.
	candidates := make(map[cmps.ID][]*webworld.Domain, cmps.Count)
	for _, d := range s.World.Domains() {
		if len(d.Episodes) == 0 || d.Unreachable || d.RedirectTo != "" || d.Geo451 ||
			d.APIOnly || d.ShowDialogOnlyEU || d.SlowLoad ||
			d.Custom.Variant == webworld.VariantFooterLink ||
			d.Custom.Variant == webworld.VariantHiddenFromEU {
			continue
		}
		last := d.Episodes[len(d.Episodes)-1].CMP
		if len(candidates[last]) < 64 {
			candidates[last] = append(candidates[last], d)
		}
	}
	out := make(map[cmps.ID]int, cmps.Count)
	for _, c := range cmps.All() {
		var caps []*capture.Capture
		for day := simtime.Day(0); int(day) < simtime.NumDays; day += 7 {
			for _, d := range candidates[c] {
				if d.CMPAt(day) != c || s.World.TransientDown(d.Name, day) {
					continue
				}
				caps = append(caps, b.Load("https://www."+d.Name+"/", day, capture.EUUniversity))
				break
			}
		}
		out[c] = analysis.PromptChangesObserved(caps, s.Detector, c)
	}
	return out
}

// QuantcastExperiment runs the Figure 10 field experiment against the
// latest GVL version.
func (s *Study) QuantcastExperiment() (*consent.ExperimentResult, error) {
	latest := &s.GVL.Versions[len(s.GVL.Versions)-1]
	exp := consent.NewFieldExperiment(s.Config.Seed, latest)
	return consent.Analyze(exp.Run())
}

// TrustArcOptOut runs the Figure 9 hourly measurement series.
func (s *Study) TrustArcOptOut() []*consent.OptOutRun {
	return consent.NewTrustArcFlow(s.Config.Seed).HourlySeries(consent.MeasurementWindowDays)
}

// EUUniversityStore filters a campaign's captures down to the
// default-configuration EU-university column (the I3 data source),
// keeping campaign order.
func EUUniversityStore(caps []*capture.Capture) []*capture.Capture {
	var out []*capture.Capture
	key := analysis.EUUniversityDefaultKey()
	for _, c := range caps {
		if analysis.ConfigKeyOf(c) == key {
			out = append(out, c)
		}
	}
	return out
}
