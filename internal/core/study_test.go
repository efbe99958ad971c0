package core

import (
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/interp"
	"repro/internal/simtime"
)

// The integration tests share one crawled study and its toplist
// campaigns: crawling the full window once takes a few seconds at
// TestConfig scale, and no test crawls a (day, topN) campaign another
// test already crawled.
var (
	studyOnce sync.Once
	study     *Study

	campaignsMu sync.Mutex
	campaigns   = map[campaignKey][]*capture.Capture{}
)

type campaignKey struct {
	day  simtime.Day
	topN int
}

func sharedStudy(t *testing.T) *Study {
	t.Helper()
	if testing.Short() {
		t.Skip("integration test")
	}
	studyOnce.Do(func() {
		study = NewStudy(TestConfig())
		study.RunSocialCrawl(nil)
	})
	return study
}

// sharedCampaign returns the shared study's toplist campaign at
// (day, topN), crawling it on first use.
func sharedCampaign(t *testing.T, day simtime.Day, topN int) []*capture.Capture {
	t.Helper()
	s := sharedStudy(t)
	campaignsMu.Lock()
	defer campaignsMu.Unlock()
	key := campaignKey{day, topN}
	caps, ok := campaigns[key]
	if !ok {
		caps = s.RunToplistCampaign(day, topN)
		campaigns[key] = caps
	}
	return caps
}

// sharedVantageTable tallies Table 1 / A.3 over a shared campaign.
func sharedVantageTable(t *testing.T, day simtime.Day, topN int) *analysis.VantageTable {
	t.Helper()
	return analysis.ComputeVantageTable(sharedCampaign(t, day, topN), sharedStudy(t).Detector)
}

func TestStudyPipelineBasics(t *testing.T) {
	s := sharedStudy(t)
	if s.Observations.Total == 0 {
		t.Fatal("no captures")
	}
	if s.Presence.Len() == 0 {
		t.Fatal("no presence reconstructed")
	}
	// Multi-CMP overcounting must be negligible (paper: 0.01%).
	if rate := float64(s.Observations.MultiCMP) / float64(s.Observations.Total); rate > 0.001 {
		t.Errorf("multi-CMP rate = %v", rate)
	}
	// Daily CMP shares must be polarized (paper: 99.8% of domains
	// consistently <5% or >95%).
	below, between, above := s.Observations.DailyShareDistribution(3, 0.05, 0.95)
	total := below + between + above
	if total > 0 {
		if polarized := float64(below+above) / float64(total); polarized < 0.95 {
			t.Errorf("polarized share = %.3f, want > 0.95", polarized)
		}
	}
}

// TestFigure6AdoptionShape: adoption roughly doubles Jun 2018 → Jun
// 2019 → Jun 2020 with spikes after GDPR and CCPA; <1% at the window
// start and ≈10% at the end (abstract + Figure 6).
func TestFigure6AdoptionShape(t *testing.T) {
	s := sharedStudy(t)
	top := s.Toplist.Top(s.Config.ToplistSize)
	pts, err := s.AdoptionOverTime(len(top), 7)
	if err != nil {
		t.Fatal(err)
	}
	share := func(d simtime.Day) float64 {
		return float64(analysis.At(pts, d).Total) / float64(len(top))
	}
	if start := share(simtime.Date(2018, 3, 15)); start > 0.01 {
		t.Errorf("March 2018 share = %.3f, want < 1%%", start)
	}
	if end := share(simtime.Date(2020, 9, 1)); end < 0.07 || end > 0.14 {
		t.Errorf("September 2020 share = %.3f, want ≈10%%", end)
	}
	jun18 := simtime.Date(2018, 6, 15)
	jun19 := simtime.Date(2019, 6, 15)
	jun20 := simtime.Date(2020, 6, 15)
	if gf := analysis.GrowthFactor(pts, jun18, jun19); gf < 1.6 || gf > 3.5 {
		t.Errorf("Jun18→Jun19 growth = %.2f, want ≈2", gf)
	}
	if gf := analysis.GrowthFactor(pts, jun19, jun20); gf < 1.4 || gf > 2.6 {
		t.Errorf("Jun19→Jun20 growth = %.2f, want ≈2", gf)
	}
	// GDPR spike: the month after must clearly exceed the month before.
	before := share(simtime.GDPREffective - 21)
	after := share(simtime.GDPREffective + 21)
	if after < before*1.5 {
		t.Errorf("GDPR spike missing: %.3f → %.3f", before, after)
	}
}

// TestFigure5MarketShareShape: none of the top ~50 embed the studied
// CMPs; adoption peaks in the Tranco 1k–5k range; the long tail never
// vanishes (Figure 5).
func TestFigure5MarketShareShape(t *testing.T) {
	s := sharedStudy(t)
	sizes := []int{100, 1_000, 5_000, s.Config.Domains}
	pts, err := s.MarketShareByRank(simtime.Table1Snapshot, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(sizes) {
		t.Fatalf("points = %d", len(pts))
	}
	top100, top1k, top5k, all := pts[0], pts[1], pts[2], pts[3]
	if top100.TotalShare > 0.08 {
		t.Errorf("top-100 share = %.2f, want small (≈4%%)", top100.TotalShare)
	}
	if top1k.TotalShare < 0.08 || top1k.TotalShare > 0.18 {
		t.Errorf("top-1k share = %.2f, want ≈13%%", top1k.TotalShare)
	}
	if top1k.TotalShare <= top100.TotalShare {
		t.Error("share must rise from top-100 to top-1k")
	}
	if all.TotalShare >= top5k.TotalShare {
		t.Error("cumulative share must decline into the long tail")
	}
	if all.TotalShare == 0 {
		t.Error("the long tail must not vanish")
	}
}

// TestJurisdictionalSkew: Quantcast is EU/UK-heavy relative to
// OneTrust (38.3% vs 16.3% EU+UK TLDs, Section 4.1).
func TestJurisdictionalSkew(t *testing.T) {
	s := sharedStudy(t)
	share := analysis.EUUKShare(s.Presence, simtime.Table1Snapshot)
	if share[cmps.Quantcast] < 0.30 || share[cmps.Quantcast] > 0.60 {
		t.Errorf("Quantcast EU+UK share = %.2f, want ≈0.38", share[cmps.Quantcast])
	}
	if share[cmps.OneTrust] > 0.28 {
		t.Errorf("OneTrust EU+UK share = %.2f, want ≈0.16", share[cmps.OneTrust])
	}
	if share[cmps.Quantcast] < share[cmps.OneTrust]+0.10 {
		t.Error("Quantcast must be clearly more EU-centric than OneTrust")
	}
}

// TestFigure4SwitchingShape: Cookiebot is the "gateway CMP" — it loses
// far more websites to competitors than it gains (Figure 4).
func TestFigure4SwitchingShape(t *testing.T) {
	s := sharedStudy(t)
	m, err := s.SwitchingFlows()
	if err != nil {
		t.Fatal(err)
	}
	cbLoss := m.LossesToCompetitors(cmps.Cookiebot)
	cbGain := m.GainsFromCompetitors(cmps.Cookiebot)
	if cbLoss == 0 {
		t.Error("Cookiebot must lose websites to competitors")
	}
	if cbGain > cbLoss {
		t.Errorf("Cookiebot gains (%d) exceed losses (%d); gateway dynamic missing", cbGain, cbLoss)
	}
	// OneTrust and Quantcast absorb switchers on net.
	if m.NetCompetitive(cmps.OneTrust) < 0 {
		t.Errorf("OneTrust net competitive = %d, want ≥ 0", m.NetCompetitive(cmps.OneTrust))
	}
}

// TestTable1VantageShape: EU cloud sees more than US cloud; the
// university vantage beats both clouds (anti-bot interstitials ≈10%);
// extended timeouts recover ≈2%; language has no effect (Table 1).
func TestTable1VantageShape(t *testing.T) {
	vt := sharedVantageTable(t, simtime.Table1Snapshot, 1_000)
	us := vt.Coverage[analysis.USCloudKey()]
	eu := vt.Coverage[analysis.EUCloudKey()]
	uniDef := vt.Coverage[analysis.EUUniversityDefaultKey()]
	uniExt := vt.Coverage[analysis.EUUniversityExtendedKey()]
	if !(us < eu && eu < uniDef && uniDef <= uniExt) {
		t.Errorf("coverage ordering violated: us=%.2f eu=%.2f uniDef=%.2f uniExt=%.2f",
			us, eu, uniDef, uniExt)
	}
	if us < 0.70 || us > 0.88 {
		t.Errorf("US coverage = %.2f, want ≈0.79", us)
	}
	if eu-us < 0.03 {
		t.Errorf("EU-vs-US gap = %.2f, want noticeable (EU-only embeds)", eu-us)
	}
	if uniDef-eu < 0.05 {
		t.Errorf("university-vs-cloud gap = %.2f, want ≈0.10 (anti-bot)", uniDef-eu)
	}
	if uniExt-uniDef > 0.06 {
		t.Errorf("timeout effect = %.2f, want ≈0.02", uniExt-uniDef)
	}
	// Language columns track the extended-timeout column.
	de := vt.Coverage["eu-university/lang-de"]
	gb := vt.Coverage["eu-university/lang-en-gb"]
	if absf(de-uniExt) > 0.03 || absf(gb-uniExt) > 0.03 {
		t.Errorf("language must have no significant effect: de=%.2f gb=%.2f ext=%.2f", de, gb, uniExt)
	}
	// Row ordering at the university vantage: OneTrust > Quantcast >
	// TrustArc ≥ Cookiebot (Table 1).
	key := analysis.EUUniversityExtendedKey()
	ot, qc := vt.Count(cmps.OneTrust, key), vt.Count(cmps.Quantcast, key)
	ta, cb := vt.Count(cmps.TrustArc, key), vt.Count(cmps.Cookiebot, key)
	if !(ot > qc && qc > ta) {
		t.Errorf("CMP ordering: OT=%d QC=%d TA=%d CB=%d", ot, qc, ta, cb)
	}
}

// TestTableA3JanuaryComparison: US coverage was markedly lower in
// January 2020 than in May 2020 (CCPA adoption outside the EU), and
// Crownpeak collapses between the snapshots (Table A.3 vs Table 1).
func TestTableA3JanuaryComparison(t *testing.T) {
	may := sharedVantageTable(t, simtime.Table1Snapshot, 1_000)
	jan := sharedVantageTable(t, simtime.TableA3Snapshot, 1_000)
	if jan.Coverage[analysis.USCloudKey()] >= may.Coverage[analysis.USCloudKey()] {
		t.Errorf("US coverage must rise Jan→May: %.2f → %.2f",
			jan.Coverage[analysis.USCloudKey()], may.Coverage[analysis.USCloudKey()])
	}
	key := analysis.EUUniversityExtendedKey()
	cpJan := jan.Count(cmps.Crownpeak, key)
	cpMay := may.Count(cmps.Crownpeak, key)
	if cpMay > cpJan {
		t.Errorf("Crownpeak must decline Jan→May: %d → %d", cpJan, cpMay)
	}
}

// TestCustomizationI3: the publisher-customization distributions of
// Section 4.1 at the EU-university vantage.
func TestCustomizationI3(t *testing.T) {
	s := sharedStudy(t)
	stats := s.Customization(sharedCampaign(t, simtime.Table1Snapshot, 2_000))
	qc := stats[cmps.Quantcast]
	if qc.Websites < 20 {
		t.Skipf("too few Quantcast sites (%d) for distribution checks", qc.Websites)
	}
	direct := qc.VariantShare("direct-reject")
	more := qc.VariantShare("more-options")
	if direct < 0.35 || direct > 0.68 {
		t.Errorf("Quantcast 1-click-reject share = %.2f, want ≈0.55·(1-api)", direct)
	}
	if direct+more < 0.8 {
		t.Errorf("Quantcast closed customization must cover most sites: %.2f", direct+more)
	}
	ot := stats[cmps.OneTrust]
	if ot.VariantShare("conventional-banner") < 0.55 {
		t.Errorf("OneTrust conventional share = %.2f, want ≈0.61+", ot.VariantShare("conventional-banner"))
	}
	api := analysis.APIOnlyShare(stats)
	if api < 0.03 || api > 0.15 {
		t.Errorf("API-only share = %.2f, want ≈0.08", api)
	}
}

// TestMissingDataBreakdown reproduces the Section 3.5 reachability
// classification proportions.
func TestMissingDataBreakdown(t *testing.T) {
	s := sharedStudy(t)
	top := s.Toplist.Top(s.Config.ToplistSize)
	md := analysis.ComputeMissingData(s.World, top, func(domain string) bool {
		d := s.World.Domain(domain)
		return d != nil && !d.NeverShared
	})
	if md.NeverShared == 0 {
		t.Fatal("some toplist domains are never shared (1076/10k in the paper)")
	}
	share := float64(md.NeverShared) / float64(md.ToplistSize)
	if share < 0.05 || share > 0.20 {
		t.Errorf("never-shared share = %.3f, want ≈0.11", share)
	}
	if md.Unreachable == 0 || md.Infrastructure == 0 {
		t.Errorf("breakdown incomplete: %+v", md)
	}
	if md.Unreachable < md.HTTPError {
		t.Errorf("unreachable (%d) should dominate HTTP errors (%d), as in the paper (315 vs 70)",
			md.Unreachable, md.HTTPError)
	}
}

// TestInterpolationAblation: disabling interpolation and fade-out must
// strictly reduce measured presence.
func TestInterpolationAblation(t *testing.T) {
	s := sharedStudy(t)
	raw := s.RebuildPresence(interp.Options{NoInterpolation: true, FadeOut: -1})
	top := s.Toplist.Top(s.Config.ToplistSize)
	full := analysis.AdoptionOverTime(s.Presence, top, 30)
	ablated := analysis.AdoptionOverTime(raw, top, 30)
	var fullSum, ablatedSum int
	for i := range full {
		fullSum += full[i].Total
		ablatedSum += ablated[i].Total
	}
	if ablatedSum >= fullSum {
		t.Errorf("ablation must reduce presence: %d vs %d", ablatedSum, fullSum)
	}
	if ablatedSum == 0 {
		t.Error("raw observations must still show presence on capture days")
	}
}

// TestAdoptionSpikeDetection: the GDPR month spikes; enforcement and
// guidance events do not (Figure 6's causal claim, automated).
func TestAdoptionSpikeDetection(t *testing.T) {
	s := sharedStudy(t)
	pts, err := s.AdoptionOverTime(s.Config.ToplistSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	spikes := analysis.DetectAdoptionSpikes(pts, 3)
	if !analysis.SpikeNear(spikes, simtime.GDPREffective, 62) {
		t.Errorf("GDPR spike not detected: %+v", spikes)
	}
	for _, ev := range simtime.Events() {
		if ev.Kind == simtime.LawEffective {
			continue
		}
		if analysis.SpikeNear(spikes, ev.Day, 20) {
			t.Errorf("non-law event %q coincides with a spike", ev.Name)
		}
	}
}

// TestCoverageSeriesTrend: US-cloud coverage rises through the CCPA
// wave while the EU vantages stay flat (Tables 1/A.3 continuously).
func TestCoverageSeriesTrend(t *testing.T) {
	s := sharedStudy(t)
	pts := s.CoverageSeries(simtime.Date(2019, 6, 1), simtime.Date(2020, 5, 31), 500)
	if len(pts) < 10 {
		t.Fatalf("points = %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.USCloud-first.USCloud < 0.04 {
		t.Errorf("US coverage must rise through the CCPA wave: %.2f → %.2f",
			first.USCloud, last.USCloud)
	}
	if absf(last.UniDefault-first.UniDefault) > 0.05 {
		t.Errorf("university coverage should stay flat: %.2f → %.2f",
			first.UniDefault, last.UniDefault)
	}
}

// TestComplianceSurvey checks the Matte-et-al violation shares on the
// synthetic web.
func TestComplianceSurvey(t *testing.T) {
	s := sharedStudy(t)
	res, err := s.ComplianceSurvey(simtime.Table1Snapshot, s.Config.ToplistSize)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audited < 50 {
		t.Fatalf("audited only %d sites", res.Audited)
	}
}

// TestPromptChanges recovers the Figure 1 annotation: Quantcast's
// prompt changed 38 times over the observation period.
func TestPromptChanges(t *testing.T) {
	s := sharedStudy(t)
	changes := s.PromptChanges()
	qc := changes[cmps.Quantcast]
	// Weekly sampling of a rotating candidate pool recovers most but
	// not necessarily all 38 changes (some revisions live < 1 week).
	if qc < 28 || qc > 38 {
		t.Errorf("Quantcast prompt changes observed = %d, want ≈38", qc)
	}
	if changes[cmps.OneTrust] <= changes[cmps.LiveRamp] {
		t.Errorf("OneTrust (%d) should change more than late-launching LiveRamp (%d)",
			changes[cmps.OneTrust], changes[cmps.LiveRamp])
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
