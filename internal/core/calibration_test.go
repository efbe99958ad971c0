package core

import (
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cmps"
	"repro/internal/consent"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// TestCalibrationReport prints the key aggregates of the shared
// reduced-scale study next to the paper's values. It asserts only
// weakly; the strong shape assertions live in the dedicated
// integration tests. Run with -v to see the report.
func TestCalibrationReport(t *testing.T) {
	s := sharedStudy(t)

	t.Logf("captures=%d domains-observed=%d multiCMP=%d",
		s.Observations.Total, s.Observations.NumDomains(), s.Observations.MultiCMP)

	top := s.Toplist.Top(s.Config.ToplistSize)
	points, err := s.AdoptionOverTime(len(top), 14)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []simtime.Day{
		simtime.Date(2018, 4, 1), simtime.Date(2018, 6, 15), simtime.Date(2019, 6, 15),
		simtime.Date(2020, 1, 15), simtime.Date(2020, 5, 15), simtime.Date(2020, 9, 1),
	} {
		pt := analysis.At(points, d)
		t.Logf("adoption %s: total=%d (%.2f%%) byCMP=%v", d, pt.Total,
			100*float64(pt.Total)/float64(len(top)), fmtCounts(pt.Counts))
	}

	ms, err := s.MarketShareByRank(simtime.Table1Snapshot, []int{100, 500, 1000, 2000, 5000, 10000, s.Config.Domains})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range ms {
		t.Logf("marketshare size=%d total=%.2f%%", pt.Size, 100*pt.TotalShare)
	}

	euuk := analysis.EUUKShare(s.Presence, simtime.Table1Snapshot)
	t.Logf("EU+UK TLD share: QC=%.1f%% OT=%.1f%%", 100*euuk[cmps.Quantcast], 100*euuk[cmps.OneTrust])

	flows, err := s.SwitchingFlows()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmps.All() {
		t.Logf("flows %s: gains=%d losses=%d adoptions=%d abandons=%d",
			c, flows.GainsFromCompetitors(c), flows.LossesToCompetitors(c),
			flows.Adoptions(c), flows.Abandons(c))
	}

	vt := sharedVantageTable(t, simtime.Table1Snapshot, 1000)
	for _, key := range vt.Configs {
		t.Logf("vantage %-32s total=%3d coverage=%.2f", key, vt.Totals[key], vt.Coverage[key])
	}
	vtJan := sharedVantageTable(t, simtime.TableA3Snapshot, 1000)
	t.Logf("Jan2020 US coverage=%.2f EUcloud=%.2f",
		vtJan.Coverage[analysis.USCloudKey()], vtJan.Coverage[analysis.EUCloudKey()])
	for _, c := range cmps.All() {
		t.Logf("vantage May[%s]: us=%d eu=%d uni=%d | Jan uni=%d", c,
			vt.Count(c, analysis.USCloudKey()), vt.Count(c, analysis.EUCloudKey()),
			vt.Count(c, analysis.EUUniversityExtendedKey()),
			vtJan.Count(c, analysis.EUUniversityExtendedKey()))
	}

	cust := s.Customization(sharedCampaign(t, simtime.Table1Snapshot, 1000))
	for _, c := range cmps.All() {
		st := cust[c]
		t.Logf("customization %s: n=%d variants=%v api=%d", c, st.Websites, st.Variants, st.APIOnly)
	}
	t.Logf("API-only share=%.1f%%", 100*analysis.APIOnlyShare(cust))

	exp, err := s.QuantcastExperiment()
	if err != nil {
		t.Fatal(err)
	}
	a, b := exp.DirectReject, exp.MoreOptions
	t.Logf("quantcast A: shown=%d acc=%d rej=%d medAcc=%.2f medRej=%.2f rate=%.2f U=%.0f z=%.2f p=%.4f",
		a.Shown, len(a.AcceptTimes), len(a.RejectTimes), a.MedianAcceptSec, a.MedianRejectSec, a.ConsentRate, a.Test.U, a.Test.Z, a.Test.P)
	t.Logf("quantcast B: shown=%d acc=%d rej=%d medAcc=%.2f medRej=%.2f rate=%.2f U=%.0f z=%.2f p=%.4f",
		b.Shown, len(b.AcceptTimes), len(b.RejectTimes), b.MedianAcceptSec, b.MedianRejectSec, b.ConsentRate, b.Test.U, b.Test.Z, b.Test.P)
	t.Logf("total shown=%d timestamps=%d", exp.TotalShown, exp.Timestamps)

	runs := s.TrustArcOptOut()
	med := consent.MedianTotalMS(runs) / 1000
	r0 := runs[0]
	t.Logf("trustarc: runs=%d medianTotal=%.1fs clicks=%d extraReq=%d extraDomains=%d extraMB=%.2f/%.2f",
		len(runs), med, r0.Clicks, r0.ExtraRequests, r0.ExtraDomains,
		float64(r0.ExtraBytesCompressed)/1e6, float64(r0.ExtraBytesRaw)/1e6)

	series := s.GVL.PurposeSeries()
	first, last := series[0], series[len(series)-1]
	t.Logf("gvl: v1 vendors=%d  v215 vendors=%d netLI2C=%d", first.VendorCount, last.VendorCount, s.GVL.NetLegIntToConsent())
	if s.Observations.Total == 0 {
		t.Fatal("no captures recorded")
	}
	_ = stats.Summary{}
}

// fmtCounts renders a CMP-count map in cmps.All order.
func fmtCounts(m map[cmps.ID]int) string {
	out := ""
	for _, c := range cmps.All() {
		out += c.String() + ":" + strconv.Itoa(m[c]) + " "
	}
	return out
}
