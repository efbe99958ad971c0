package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §3), plus ablation benches for the design
// choices called out in DESIGN.md §5. The expensive setup — crawling
// the full 2.5-year window over the synthetic web — runs once and is
// shared; each benchmark iteration regenerates its table/figure from
// the crawl data, which is the quantity of interest for a measurement
// pipeline.
//
// Shapes (who wins, by what factor, where crossovers fall) match the
// paper; absolute capture volumes are ≈1/100 scale. EXPERIMENTS.md
// records paper-vs-measured values produced by cmd/analyze.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analytics"
	"repro/internal/capstore"
	"repro/internal/capstore/replica"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/cmps"
	"repro/internal/compliance"
	"repro/internal/consent"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/decision"
	"repro/internal/detect"
	"repro/internal/gvl"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/tcf"
	"repro/internal/webserve"
	"repro/internal/webworld"
)

var (
	benchOnce     sync.Once
	benchStudy    *core.Study
	benchCampaign []*capture.Capture // Table 1: May 2020, top 1k
	benchJanuary  []*capture.Capture // Table A.3: January 2020, top 1k
)

// benchSetup crawls once at a scale sized for benchmarking: the social
// window and the Table 1 and A.3 toplist campaigns.
func benchSetup(b *testing.B) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		cfg := core.TestConfig()
		benchStudy = core.NewStudy(cfg)
		benchStudy.RunSocialCrawl(nil)
		benchCampaign = benchStudy.RunToplistCampaign(simtime.Table1Snapshot, 1_000)
		benchJanuary = benchStudy.RunToplistCampaign(simtime.TableA3Snapshot, 1_000)
	})
	b.ResetTimer()
	return benchStudy
}

// BenchmarkFigure1PriorWork regenerates the related-work inventory.
func BenchmarkFigure1PriorWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		studies := analysis.PriorWork()
		if len(studies) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkTable1Vantage regenerates Table 1 from its crawled
// campaign: CMP occurrence across the six vantage configurations at
// the May 2020 snapshot.
func BenchmarkTable1Vantage(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		vt := analysis.ComputeVantageTable(benchCampaign, s.Detector)
		if vt.Totals[analysis.EUUniversityExtendedKey()] == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableA3VantageJan regenerates Table A.3 (January 2020) from
// its crawled campaign.
func BenchmarkTableA3VantageJan(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		vt := analysis.ComputeVantageTable(benchJanuary, s.Detector)
		if vt.Totals[analysis.EUUniversityExtendedKey()] == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure4Switching regenerates the CMP switching flows.
func BenchmarkFigure4Switching(b *testing.B) {
	s := benchSetup(b)
	var losses int
	for i := 0; i < b.N; i++ {
		m, err := s.SwitchingFlows()
		if err != nil {
			b.Fatal(err)
		}
		losses = m.LossesToCompetitors(cmps.Cookiebot)
	}
	b.ReportMetric(float64(losses), "cookiebot-losses")
}

// BenchmarkFigure5MarketShare regenerates cumulative market share as
// a function of toplist size (May 2020).
func BenchmarkFigure5MarketShare(b *testing.B) {
	s := benchSetup(b)
	sizes := []int{100, 500, 1_000, 2_000, 5_000, s.Config.Domains}
	var top1k float64
	for i := 0; i < b.N; i++ {
		pts, err := s.MarketShareByRank(simtime.Table1Snapshot, sizes)
		if err != nil {
			b.Fatal(err)
		}
		top1k = pts[2].TotalShare
	}
	b.ReportMetric(top1k*100, "top1k-share-%")
}

// BenchmarkFigureA4A5MarketShareHistoric regenerates the January 2019
// and January 2020 market-share snapshots (Figures A.4/A.5).
func BenchmarkFigureA4A5MarketShareHistoric(b *testing.B) {
	s := benchSetup(b)
	sizes := []int{100, 1_000, 5_000}
	for i := 0; i < b.N; i++ {
		for _, day := range []simtime.Day{
			simtime.Date(2019, 1, 15), simtime.Date(2020, 1, 15),
		} {
			if _, err := s.MarketShareByRank(day, sizes); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure6Adoption regenerates adoption over time in the
// toplist with weekly resolution.
func BenchmarkFigure6Adoption(b *testing.B) {
	s := benchSetup(b)
	top := s.Toplist.Top(s.Config.ToplistSize)
	var endShare float64
	for i := 0; i < b.N; i++ {
		pts := analysis.AdoptionOverTime(s.Presence, top, 7)
		last := pts[len(pts)-1]
		endShare = float64(last.Total) / float64(len(top))
	}
	b.ReportMetric(endShare*100, "sep2020-share-%")
}

// BenchmarkFigure7GVLGrowth regenerates the GVL vendor/purpose series.
func BenchmarkFigure7GVLGrowth(b *testing.B) {
	h := gvl.GenerateHistory(gvl.DefaultHistoryConfig())
	b.ResetTimer()
	var vendors int
	for i := 0; i < b.N; i++ {
		series := h.PurposeSeries()
		vendors = series[len(series)-1].VendorCount
	}
	b.ReportMetric(float64(vendors), "final-vendors")
}

// BenchmarkFigure8LegalBasis regenerates the monthly legal-basis
// change flows.
func BenchmarkFigure8LegalBasis(b *testing.B) {
	h := gvl.GenerateHistory(gvl.DefaultHistoryConfig())
	b.ResetTimer()
	var net int
	for i := 0; i < b.N; i++ {
		if flows := h.LegalBasisFlows(); len(flows) == 0 {
			b.Fatal("empty")
		}
		net = h.NetLegIntToConsent()
	}
	b.ReportMetric(float64(net), "net-LI-to-consent")
}

// BenchmarkFigure9TrustArcOptOut regenerates the two-week hourly
// opt-out measurement series.
func BenchmarkFigure9TrustArcOptOut(b *testing.B) {
	var median float64
	for i := 0; i < b.N; i++ {
		flow := consent.NewTrustArcFlow(1)
		runs := flow.HourlySeries(consent.MeasurementWindowDays)
		median = consent.MedianTotalMS(runs) / 1000
	}
	b.ReportMetric(median, "median-optout-s")
}

// BenchmarkFigure10QuantcastTiming regenerates the randomized dialog
// timing experiment.
func BenchmarkFigure10QuantcastTiming(b *testing.B) {
	h := gvl.GenerateHistory(gvl.HistoryConfig{Seed: 1, Versions: 5, InitialVendors: 150, PeakVendors: 300})
	list := &h.Versions[len(h.Versions)-1]
	b.ResetTimer()
	var medB float64
	for i := 0; i < b.N; i++ {
		exp := consent.NewFieldExperiment(1, list)
		res, err := consent.Analyze(exp.Run())
		if err != nil {
			b.Fatal(err)
		}
		medB = res.MoreOptions.MedianRejectSec
	}
	b.ReportMetric(medB, "configB-median-reject-s")
}

// BenchmarkCustomizationI3 regenerates the publisher customization
// statistics from the EU-university DOM store.
func BenchmarkCustomizationI3(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		stats := s.Customization(benchCampaign)
		if stats[cmps.OneTrust] == nil {
			b.Fatal("missing stats")
		}
	}
}

// BenchmarkCoverageMissingData regenerates the Section 3.5 missing-
// data breakdown.
func BenchmarkCoverageMissingData(b *testing.B) {
	s := benchSetup(b)
	top := s.Toplist.Top(s.Config.ToplistSize)
	for i := 0; i < b.N; i++ {
		md := analysis.ComputeMissingData(s.World, top, func(domain string) bool {
			d := s.World.Domain(domain)
			return d != nil && !d.NeverShared
		})
		if md.NeverShared == 0 {
			b.Fatal("empty breakdown")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationInterpolation compares presence reconstruction with
// the paper's interpolation + fade-out against raw observations.
func BenchmarkAblationInterpolation(b *testing.B) {
	s := benchSetup(b)
	b.Run("paper", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.RebuildPresence(interp.Options{})
		}
	})
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.RebuildPresence(interp.Options{NoInterpolation: true, FadeOut: -1})
		}
	})
}

// BenchmarkAblationSiteHeuristic compares the ≥⅓-captures site
// heuristic against any-capture and majority rules.
func BenchmarkAblationSiteHeuristic(b *testing.B) {
	s := benchSetup(b)
	domains := s.Observations.Domains()
	for _, tc := range []struct {
		name      string
		threshold float64
	}{
		{"any-capture", 0.0001}, {"one-third", detect.SiteHeuristicThreshold}, {"majority", 0.5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				classifiedDays := 0
				for _, d := range domains {
					for _, o := range s.Observations.DayObservations(d, tc.threshold) {
						if o.CMP != cmps.None {
							classifiedDays++
						}
					}
				}
				b.ReportMetric(float64(classifiedDays), "cmp-domain-days")
			}
		})
	}
}

// configCaptures filters a campaign's captures to one configuration
// column, keeping campaign order.
func configCaptures(caps []*capture.Capture, key string) []*capture.Capture {
	var out []*capture.Capture
	for _, c := range caps {
		if analysis.ConfigKeyOf(c) == key {
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkAblationDetectorKind compares hostname-fingerprint
// detection against DOM matching. The paper found DOM parsing "much
// more unreliable": it fails whenever the site's configuration does
// not render a dialog, so the gap is largest from the US vantage where
// EU-configured sites suppress their dialogs but still load CMP
// resources.
func BenchmarkAblationDetectorKind(b *testing.B) {
	benchSetup(b)
	det := detect.Default()
	stores := map[string][]*capture.Capture{
		"eu-university": core.EUUniversityStore(benchCampaign),
		"us-cloud":      configCaptures(benchCampaign, analysis.USCloudKey()),
	}
	for vantage, caps := range stores {
		b.Run("network/"+vantage, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				found := 0
				for _, c := range caps {
					if det.DetectOne(c) != cmps.None {
						found++
					}
				}
				b.ReportMetric(float64(found), "detected")
			}
		})
		b.Run("dom/"+vantage, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				found := 0
				for _, c := range caps {
					if det.DetectDOM(c) != cmps.None {
						found++
					}
				}
				b.ReportMetric(float64(found), "detected")
			}
		})
	}
}

// BenchmarkAblationSampling compares toplist-frontpage-only detection
// against the social-feed subsite sample at the Table 1 snapshot.
func BenchmarkAblationSampling(b *testing.B) {
	s := benchSetup(b)
	top := s.Toplist.Top(1_000)
	det := detect.Default()
	b.Run("toplist-frontpage", func(b *testing.B) {
		caps := core.EUUniversityStore(benchCampaign)
		for i := 0; i < b.N; i++ {
			found := map[string]bool{}
			for _, c := range caps {
				if det.DetectOne(c) != cmps.None {
					found[c.FinalDomain] = true
				}
			}
			b.ReportMetric(float64(len(found)), "cmp-domains")
		}
	})
	b.Run("social-subsites", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			found := 0
			for _, d := range top {
				if s.Presence.CMPAt(d, simtime.Table1Snapshot) != cmps.None {
					found++
				}
			}
			b.ReportMetric(float64(found), "cmp-domains")
		}
	})
}

// BenchmarkCoverageSeries measures the monthly vantage-coverage series
// (continuous Tables 1/A.3): each iteration crawls its eight monthly
// toplist campaigns and tallies them.
func BenchmarkCoverageSeries(b *testing.B) {
	s := benchSetup(b)
	var rise float64
	for i := 0; i < b.N; i++ {
		pts := s.CoverageSeries(simtime.Date(2019, 10, 1), simtime.Date(2020, 5, 31), 300)
		rise = pts[len(pts)-1].USCloud - pts[0].USCloud
	}
	b.ReportMetric(100*rise, "us-coverage-rise-pts")
}

// BenchmarkSubsiteCoverage measures the front-page vs subsite
// detection comparison (Section 3.5).
func BenchmarkSubsiteCoverage(b *testing.B) {
	s := benchSetup(b)
	domains := s.Toplist.Top(500)
	var gain float64
	for i := 0; i < b.N; i++ {
		cov := analysis.CompareSubsiteCoverage(s.World, domains, simtime.Table1Snapshot, 4)
		gain = cov.Gain()
	}
	b.ReportMetric(100*gain, "subsite-gain-%")
}

// BenchmarkTracking measures the identifying-storage analysis.
func BenchmarkTracking(b *testing.B) {
	benchSetup(b)
	caps := core.EUUniversityStore(benchCampaign)
	var share float64
	for i := 0; i < b.N; i++ {
		share = analysis.ComputeTracking(caps).IdentifyingShare()
	}
	b.ReportMetric(100*share, "identifying-%")
}

// BenchmarkComplianceAudit measures the Matte-et-al violation survey
// over the toplist.
func BenchmarkComplianceAudit(b *testing.B) {
	s := benchSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := s.ComplianceSurvey(simtime.Table1Snapshot, 1_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Share(compliance.ConsentBeforeChoice), "pre-choice-%")
	}
}

// BenchmarkPromptChanges measures recovering the Figure 1 prompt-
// change history from longitudinal dialog captures.
func BenchmarkPromptChanges(b *testing.B) {
	s := benchSetup(b)
	var qc int
	for i := 0; i < b.N; i++ {
		qc = s.PromptChanges()[cmps.Quantcast]
	}
	b.ReportMetric(float64(qc), "quantcast-changes")
}

// BenchmarkCaptureDB measures capture persistence throughput.
func BenchmarkCaptureDB(b *testing.B) {
	s := benchSetup(b)
	caps := core.EUUniversityStore(benchCampaign)
	b.Run("write", func(b *testing.B) {
		// Write one representative record per iteration; throughput is
		// its encoded size, fixed before the loop so MB/s is exact
		// regardless of b.N.
		rec := caps[0]
		enc, err := capturedb.Encode(rec)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(enc)))
		var buf bytes.Buffer
		w := capturedb.NewWriter(&buf)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Record(rec)
		}
		b.StopTimer()
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if buf.Len() != b.N*len(enc) {
			b.Fatalf("wrote %d bytes, want %d", buf.Len(), b.N*len(enc))
		}
	})
	b.Run("scan", func(b *testing.B) {
		var buf bytes.Buffer
		w := capturedb.NewWriter(&buf)
		for _, c := range caps {
			w.Record(c)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := capturedb.Count(bytes.NewReader(data), capturedb.Query{})
			if err != nil || n == 0 {
				b.Fatal(err)
			}
		}
	})
	_ = s
}

// BenchmarkDetectOne measures the per-capture network-detection hot
// path with a live metrics recorder attached. It must stay
// allocation-free: Record calls it (via DetectMask) once per capture
// under a shard lock. BenchmarkDetectOneNop is the same loop with the
// no-op recorder; TestTelemetryOverhead (`make obs-overhead`) gates the
// pair at 5%.
func BenchmarkDetectOne(b *testing.B) {
	det := detect.Default()
	det.SetMetrics(detect.NewMetrics(obs.NewRegistry()))
	benchDetectOne(b, det)
}

// BenchmarkDetectOneNop is the detection hot path with the no-op (nil)
// recorder — the baseline for the telemetry-overhead gate.
func BenchmarkDetectOneNop(b *testing.B) {
	benchDetectOne(b, detect.Default())
}

func benchDetectOne(b *testing.B, det *detect.Detector) {
	benchSetup(b)
	caps := core.EUUniversityStore(benchCampaign)
	b.ReportAllocs()
	b.ResetTimer()
	found := 0
	for i := 0; i < b.N; i++ {
		if det.DetectOne(caps[i%len(caps)]) != cmps.None {
			found++
		}
	}
	if b.N >= len(caps) && found == 0 {
		b.Fatal("no CMPs detected in EU university captures")
	}
}

// BenchmarkStreamVisit drives the streaming pipeline end to end —
// Submit through politeness, browser visit, detection-free discard
// sink — and reports the per-share cost. The nop/live pair bounds the
// overhead of the visit-path telemetry (latency histogram, outcome
// counters, visit/store spans with cross-process id derivation);
// TestTelemetryOverhead (`make obs-overhead`) gates it at 5%.
func BenchmarkStreamVisit(b *testing.B) {
	b.Run("nop", func(b *testing.B) { benchStreamVisit(b, false) })
	b.Run("live", func(b *testing.B) { benchStreamVisit(b, true) })
}

func benchStreamVisit(b *testing.B, live bool) {
	world := webworld.New(webworld.Config{Seed: 1, Domains: 3_000})
	feed := socialfeed.New(world, socialfeed.Config{Seed: 1, SharesPerDay: 200})
	type sub struct {
		day   simtime.Day
		share socialfeed.Share
	}
	var subs []sub
	for day := simtime.Day(0); len(subs) < 512; day++ {
		for _, s := range feed.Day(day) {
			subs = append(subs, sub{day, s})
		}
	}
	cfg := crawler.StreamConfig{
		Seed:    1,
		Workers: 4,
		Retry:   resilience.RetryPolicy{MaxAttempts: 2},
	}
	if live {
		cfg.Metrics = crawler.NewStreamMetrics(obs.NewRegistry())
		cfg.Tracer = obs.NewTracer(obs.TracerConfig{Cap: 4096})
		// Propagation on: every visit span derives its ids under a
		// remote parent, the same path a fleet worker exercises.
		lease := obs.NewTracer(obs.TracerConfig{Service: "fleetd"}).
			Start("lease", obs.A("first", "0"), obs.A("attempt", "1"))
		cfg.TraceContext = lease.Context()
	}
	p := crawler.NewStreamPlatform(world, cfg)
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx, discardSink{})
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := subs[i%len(subs)]
		if err := p.Submit(ctx, s.day, s.share); err != nil {
			b.Fatal(err)
		}
	}
	p.Close()
	<-done
	b.StopTimer()
	st := p.Stats()
	if st.Succeeded+st.FailedRecorded+st.DeadLettered+st.Dropped != st.Submitted {
		b.Fatalf("ledger identity broken: %+v", st)
	}
}

type discardSink struct{}

func (discardSink) Record(*capture.Capture) {}

// BenchmarkHTTPCrawl measures the wire-level pipeline: serving a page
// over real HTTP and reassembling the capture.
func BenchmarkHTTPCrawl(b *testing.B) {
	s := benchSetup(b)
	history := gvl.GenerateHistory(gvl.HistoryConfig{Seed: 1, Versions: 5, InitialVendors: 50, PeakVendors: 100})
	ts := httptest.NewServer(webserve.NewServer(s.World, history))
	defer ts.Close()
	u, err := url.Parse(ts.URL)
	if err != nil {
		b.Fatal(err)
	}
	crawler := webserve.NewCrawler(u.Host)
	day := simtime.Table1Snapshot
	var target string
	for _, d := range s.World.Domains() {
		if d.CMPAt(day) != cmps.None && !d.Unreachable && d.RedirectTo == "" && !d.Geo451 &&
			!s.World.TransientDown(d.Name, day) {
			target = "http://www." + d.Name + "/"
			break
		}
	}
	if target == "" {
		b.Skip("no target")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cap, err := crawler.Fetch(target, day, capture.EUUniversity)
		if err != nil || cap.Failed {
			b.Fatalf("%v %s", err, cap.Error)
		}
	}
}

// BenchmarkTCFv2Codec measures v2 consent-string encode+decode.
func BenchmarkTCFv2Codec(b *testing.B) {
	c := tcf.NewV2(simtime.Table1Snapshot.Time())
	c.MaxVendorID = 700
	for v := 1; v <= 700; v += 3 {
		c.VendorConsent[v] = true
	}
	c.MaxVendorLIID = 650
	for v := 5; v <= 650; v += 7 {
		c.VendorLegInt[v] = true
	}
	for p := 1; p <= 10; p++ {
		c.PurposesConsent[p] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := c.EncodeV2()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tcf.DecodeV2(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTCFEncoding compares the bitfield and range vendor
// encodings of the TCF consent string.
func BenchmarkAblationTCFEncoding(b *testing.B) {
	c := tcf.New(simtime.Table1Snapshot.Time())
	c.SetAllPurposes(true)
	c.SetAllVendors(650, true)
	for v := 10; v < 650; v += 13 {
		c.VendorConsent[v] = false // sparse exceptions favour ranges
	}
	for _, tc := range []struct {
		name string
		enc  tcf.VendorEncoding
	}{
		{"bitfield", tcf.EncodingBitField}, {"range", tcf.EncodingRange},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				s, err := c.EncodeWith(tc.enc)
				if err != nil {
					b.Fatal(err)
				}
				size = len(s)
			}
			b.ReportMetric(float64(size), "string-bytes")
		})
	}
}

// BenchmarkDecideOne is the zero-alloc gate on the steady-state
// decision path: one cache-hit lookup of a compiled consent string
// plus one kernel decision with a pre-resolved GVL table. allocs/op
// must be 0.
func BenchmarkDecideOne(b *testing.B) {
	pop, err := decision.GeneratePopulation(decision.PopulationConfig{Seed: 1, Size: 64})
	if err != nil {
		b.Fatal(err)
	}
	h := gvl.GenerateHistory(gvl.HistoryConfig{Seed: 1, Versions: 40, PeakVendors: 400})
	resolver := decision.NewResolver(gvl.UpgradeHistory(h, gvl.DefaultV2UpgradeConfig()))
	cache := decision.NewCache(decision.CacheConfig{})
	keys := make([][]byte, len(pop.Strings))
	for i, s := range pop.Strings {
		if _, err := cache.Get(s); err != nil {
			b.Fatal(err)
		}
		keys[i] = []byte(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink decision.Basis
	for i := 0; i < b.N; i++ {
		c, err := cache.GetBytes(keys[i%len(keys)])
		if err != nil {
			b.Fatal(err)
		}
		sink = decision.Decide(c, resolver.Table(c.VendorListVersion), 1+i%650, 1+i%10)
	}
	_ = sink
}

// BenchmarkDecideBatch measures the consent-decision service end to
// end: one iteration posts a pre-rendered 512-decision NDJSON batch to
// a real decision server over HTTP and drains the response. The
// decisions/sec metric is the service throughput figure (cmd/
// decisionload measures the same path against a consentd process).
func BenchmarkDecideBatch(b *testing.B) {
	const batchSize = 512
	pop, err := decision.GeneratePopulation(decision.PopulationConfig{Seed: 1, Size: 2000, MaxVLV: 40})
	if err != nil {
		b.Fatal(err)
	}
	h := gvl.GenerateHistory(gvl.HistoryConfig{Seed: 1, Versions: 40, PeakVendors: 400})
	srv := decision.NewServer(decision.ServerConfig{
		Resolver: decision.NewResolver(gvl.UpgradeHistory(h, gvl.DefaultV2UpgradeConfig())),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One pre-rendered body, built by the load driver's generator via a
	// single-request dry run configuration.
	bodies := decision.PrerenderBodies(decision.LoadConfig{
		ServerURL:  ts.URL,
		Population: pop,
		BatchSize:  batchSize,
		Bodies:     4,
	})
	client := ts.Client()
	// Warm the compiled-string cache.
	for _, body := range bodies {
		resp, err := client.Post(ts.URL+"/v1/batch", "application/x-ndjson", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("batch returned %s", resp.Status)
		}
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/batch", "application/x-ndjson", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if n != batchSize*decision.BatchAnswerLen {
			b.Fatalf("answered %d bytes, want %d", n, batchSize*decision.BatchAnswerLen)
		}
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N)*batchSize/elapsed.Seconds(), "decisions/sec")
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(int64(b.N)*batchSize), "ns/decision")
}

// BenchmarkReplicatedQueryFanout prices the replicated store's read
// path (DESIGN.md §11) through replica.Reader, as a single-node
// degenerate ring (R=1 — the read machinery with no replication) versus
// a three-node R=2 ring holding the same records in the same shard
// layout. nodes=N is the full sweep, where the delta is pure
// placement/fan-out cost: per-segment replica selection plus streams
// spread across three backends instead of one. domain/, host/ and
// count/ are what a ring is mostly asked: one domain's captures (routed
// to its segment), one CMP indicator host's captures (an indexed
// fan-out), and that host's count (answered from the posting lists).
func BenchmarkReplicatedQueryFanout(b *testing.B) {
	benchSetup(b)
	caps := core.EUUniversityStore(benchCampaign)
	const shards = 8
	// The keys come from the data: a domain from the middle of the
	// corpus and the most requested host (ties broken by name).
	domain := caps[len(caps)/2].FinalDomain
	hostHits := map[string]int{}
	for _, c := range caps {
		for _, rq := range c.Requests {
			hostHits[rq.Host]++
		}
	}
	host := ""
	for h, n := range hostHits {
		if n > hostHits[host] || (n == hostHits[host] && h < host) {
			host = h
		}
	}
	want := map[string]int{}
	queries := map[string]capturedb.Query{"": {}, "domain/": {Domain: domain}, "host/": {RequestHost: host}}
	for name, q := range queries {
		for _, c := range caps {
			if q.Match(c) {
				want[name]++
			}
		}
	}

	ring := func(nodes, replicas int) *replica.Reader {
		cfg := replica.Config{
			Shards:        shards,
			Seed:          11,
			Replicas:      replicas,
			Quorum:        1,
			QuorumTimeout: 10 * time.Second,
			NodeTimeout:   30 * time.Second,
		}
		for i := 0; i < nodes; i++ {
			store, err := capstore.Create(b.TempDir(), shards)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { store.Close() })
			ing, err := capstore.NewIngester(store, capstore.IngestConfig{})
			if err != nil {
				b.Fatal(err)
			}
			mux := http.NewServeMux()
			mux.Handle("/ingest", ing)
			mux.Handle("/", capstore.NewResilientHandler(store, capstore.ServeConfig{}))
			srv := httptest.NewServer(mux)
			b.Cleanup(srv.Close)
			cfg.Nodes = append(cfg.Nodes, replica.NodeConfig{Name: "node-" + strconv.Itoa(i), URL: srv.URL})
		}
		w, err := replica.NewWriter(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { w.Close() })
		if _, err := w.RecordBatch(caps); err != nil {
			b.Fatal(err)
		}
		if err := w.WaitConverged(30 * time.Second); err != nil {
			b.Fatal(err)
		}
		return w.Reader()
	}
	for _, topo := range []struct {
		name            string
		nodes, replicas int
	}{{"nodes=1", 1, 1}, {"nodes=3", 3, 2}} {
		r := ring(topo.nodes, topo.replicas)
		for _, kind := range []string{"", "domain/", "host/"} {
			b.Run(kind+topo.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					got := 0
					if err := r.Query(queries[kind], 0, 0, func(*capture.Capture) bool {
						got++
						return true
					}); err != nil {
						b.Fatal(err)
					}
					if got != want[kind] {
						b.Fatalf("query returned %d records, want %d", got, want[kind])
					}
				}
			})
		}
		b.Run("count/"+topo.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got, err := r.Count(queries["host/"]); err != nil || got != want["host/"] {
					b.Fatalf("count = %d, %v; want %d", got, err, want["host/"])
				}
			}
		})
	}
}

// The open-path fixture stores, keyed "records-variant", are built
// once per process (they are expensive at the 1M size) and removed by
// TestMain. Records are deliberately small so the 1M store stays
// modest on disk; what matters to Open is the record *count*, which
// drives the unpacked scan, not the record size.
var (
	openBenchMu   sync.Mutex
	openBenchRoot string
	openBenchDirs = map[string]string{}
)

func TestMain(m *testing.M) {
	code := m.Run()
	if openBenchRoot != "" {
		os.RemoveAll(openBenchRoot)
	}
	os.Exit(code)
}

func openBenchCapture(i int) *capture.Capture {
	d := "s" + strconv.Itoa(i%1000) + ".ex"
	u := "https://" + d + "/" + strconv.Itoa(i)
	return &capture.Capture{
		SeedURL:     u,
		FinalURL:    u,
		FinalDomain: d,
		Day:         simtime.Day(i % 900),
		Vantage:     capture.USCloud,
		Status:      200,
		Requests:    []capture.Request{{Host: "cmp" + strconv.Itoa(i%7) + ".ex", Path: "/c.js", Status: 200}},
	}
}

func openBenchDir(b *testing.B, n int, packed bool) string {
	b.Helper()
	openBenchMu.Lock()
	defer openBenchMu.Unlock()
	key := strconv.Itoa(n) + "-tail"
	if packed {
		key = strconv.Itoa(n) + "-packed"
	}
	if dir, ok := openBenchDirs[key]; ok {
		return dir
	}
	if openBenchRoot == "" {
		root, err := os.MkdirTemp("", "benchopen-")
		if err != nil {
			b.Fatal(err)
		}
		openBenchRoot = root
	}
	dir := filepath.Join(openBenchRoot, key)
	s, err := capstore.Create(dir, 16)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Record(openBenchCapture(i))
	}
	if packed {
		if _, err := s.CompactAll(); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	openBenchDirs[key] = dir
	return dir
}

// BenchmarkOpenStore prices Store.Open across record counts, packed
// (pack footer indexes load in O(packs); only the empty tail is
// scanned) versus unpacked (the whole segment file is scanned and
// decoded to rebuild indexes). The pack engine's core claim is the
// shape of this table: the unpacked column grows linearly with record
// count while the packed column stays flat — O(1)-open stores.
func BenchmarkOpenStore(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		for _, packed := range []bool{false, true} {
			variant := "tail"
			if packed {
				variant = "packed"
			}
			b.Run("n="+strconv.Itoa(n)+"/"+variant, func(b *testing.B) {
				dir := openBenchDir(b, n, packed)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := capstore.Open(dir)
					if err != nil {
						b.Fatal(err)
					}
					if got := s.Len(); got != int64(n) {
						b.Fatalf("opened %d records, want %d", got, n)
					}
					if err := s.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// analyticsCaptures fabricates a deterministic capture stream for the
// incremental-analytics benchmarks: a few hundred domains cycling
// through the studied CMPs, with CMP-less and failed pages mixed in.
func analyticsCaptures(n int) []*capture.Capture {
	caps := make([]*capture.Capture, n)
	for i := range caps {
		domain := "site" + strconv.Itoa(i%311) + ".example"
		c := &capture.Capture{
			SeedURL:     "https://" + domain + "/p/" + strconv.Itoa(i),
			FinalURL:    "https://" + domain + "/",
			FinalDomain: domain,
			Day:         simtime.Day((i * 5) % simtime.NumDays),
			Vantage:     capture.EUCloud,
			Config:      "default",
			Status:      200,
		}
		switch i % 7 {
		case 0:
		case 1:
			c.Failed = true
			c.Error = "timeout"
		default:
			id := cmps.ID(1 + i%int(cmps.Count))
			c.Requests = []capture.Request{{Host: id.Hostname(), Path: "/cmp.js", Status: 200}}
		}
		caps[i] = c
	}
	return caps
}

// BenchmarkViewFold prices the incremental engine's per-record fold —
// the work analyzed does for every committed capture, excluding view
// marshalling. This is the path that must keep up with live ingest.
func BenchmarkViewFold(b *testing.B) {
	caps := analyticsCaptures(4096)
	e := analytics.NewEngine(analytics.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Apply(i%4, []*capture.Capture{caps[i%len(caps)]})
	}
}

// BenchmarkAnalyzedQuery prices view serving: "cached" is the steady
// state (repeated queries between commits hit the per-cursor snapshot
// cache), "rebuild" folds one record first so every query pays the
// full view refresh + marshal — the worst-case update latency the
// analytics_view_update_seconds histogram tracks.
func BenchmarkAnalyzedQuery(b *testing.B) {
	caps := analyticsCaptures(5000)
	mk := func() *analytics.Engine {
		e := analytics.NewEngine(analytics.Config{})
		for i, c := range caps {
			e.Apply(i%4, []*capture.Capture{c})
		}
		return e
	}
	b.Run("cached", func(b *testing.B) {
		e := mk()
		if _, err := e.SnapshotAll(); err != nil {
			b.Fatal(err)
		}
		names := analytics.ViewNames()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Snapshot(names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		e := mk()
		names := analytics.ViewNames()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Apply(i%4, []*capture.Capture{caps[i%len(caps)]})
			if _, err := e.Snapshot(names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
