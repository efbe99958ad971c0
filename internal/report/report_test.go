package report

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cmps"
	"repro/internal/consent"
	"repro/internal/gvl"
	"repro/internal/simtime"
)

func TestVantageTableRendering(t *testing.T) {
	vt := &analysis.VantageTable{
		Configs:  []string{"us-cloud/default", "eu-university/extended-timeout"},
		Counts:   map[cmps.ID]map[string]int{},
		Totals:   map[string]int{"us-cloud/default": 10, "eu-university/extended-timeout": 12},
		Coverage: map[string]float64{"us-cloud/default": 0.83, "eu-university/extended-timeout": 1},
	}
	for _, c := range cmps.All() {
		vt.Counts[c] = map[string]int{"us-cloud/default": 1, "eu-university/extended-timeout": 2}
	}
	out := VantageTable("Table 1", vt)
	for _, want := range []string{"Table 1", "OneTrust", "Crownpeak", "Σ", "Coverage", "83%", "100%", "uni:ext"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMarketShareRendering(t *testing.T) {
	pts := []analysis.MarketSharePoint{{
		Size:       1000,
		Count:      map[cmps.ID]int{cmps.Quantcast: 50},
		Share:      map[cmps.ID]float64{cmps.Quantcast: 0.05},
		TotalShare: 0.13,
	}}
	out := MarketShare("Figure 5", pts)
	for _, want := range []string{"Figure 5", "1000", "5.00%", "13.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestAdoptionRenderingInterleavesEvents(t *testing.T) {
	var pts []analysis.AdoptionPoint
	for d := simtime.Day(0); int(d) < simtime.NumDays; d += 7 {
		pts = append(pts, analysis.AdoptionPoint{
			Day: d, Counts: map[cmps.ID]int{cmps.Quantcast: 1}, Total: 1,
		})
	}
	out := Adoption("Figure 6", pts, 100)
	if !strings.Contains(out, "GDPR comes into effect") {
		t.Error("event timeline missing")
	}
	if !strings.Contains(out, "2018-05") || !strings.Contains(out, "2020-09") {
		t.Error("monthly series must span the window")
	}
}

func TestFlowsRendering(t *testing.T) {
	m := &analysis.FlowMatrix{}
	m.Counts[cmps.Cookiebot][cmps.OneTrust] = 5
	m.Counts[cmps.None][cmps.Quantcast] = 7
	out := Flows(m)
	if !strings.Contains(out, "Cookiebot") || !strings.Contains(out, "Transition matrix") {
		t.Errorf("flows output malformed:\n%s", out)
	}
	if !strings.Contains(out, "-5") {
		t.Error("net competitive numbers missing")
	}
}

func TestGVLRendering(t *testing.T) {
	h := gvl.GenerateHistory(gvl.HistoryConfig{Seed: 1, Versions: 30, InitialVendors: 30, PeakVendors: 80})
	series := GVLSeries(h.PurposeSeries())
	if !strings.Contains(series, "Vendors") || !strings.Contains(series, "LI5") {
		t.Errorf("GVL series malformed:\n%s", series)
	}
	flows := LegalBasisFlows(h)
	if !strings.Contains(flows, "LI→consent") || !strings.Contains(flows, "Net LI→consent") {
		t.Errorf("legal basis rendering malformed:\n%s", flows)
	}
}

func TestTrustArcRendering(t *testing.T) {
	runs := consent.NewTrustArcFlow(1).HourlySeries(1)
	out := TrustArc(runs)
	for _, want := range []string{"median opt-out wait", "clicks: 7", "send-partner-optouts", "25 domains"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestQuantcastRendering(t *testing.T) {
	h := gvl.GenerateHistory(gvl.HistoryConfig{Seed: 1, Versions: 2, InitialVendors: 30, PeakVendors: 40})
	exp := consent.NewFieldExperiment(1, &h.Versions[1])
	exp.Visitors = 2_000
	res, err := consent.Analyze(exp.Run())
	if err != nil {
		t.Fatal(err)
	}
	out := Quantcast(res)
	for _, want := range []string{"direct reject button", "More Options", "Mann–Whitney", "consent rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCustomizationRendering(t *testing.T) {
	stats := map[cmps.ID]*analysis.CustomizationStats{
		cmps.Quantcast: {
			CMP: cmps.Quantcast, Websites: 10,
			Variants:          map[string]int{"direct-reject": 6, "more-options": 4},
			AffirmativeAccept: 8, FreeformAccept: 2,
			FooterTexts: map[string]int{},
		},
	}
	out := Customization(stats)
	if !strings.Contains(out, "Quantcast (10 websites)") || !strings.Contains(out, "direct-reject") {
		t.Errorf("customization rendering malformed:\n%s", out)
	}
	if !strings.Contains(out, "API-only") {
		t.Error("API-only summary missing")
	}
}

// The footer-link rows come from a map; rendering must sort them so
// the report is the same bytes on every run.
func TestCustomizationFooterRowsSorted(t *testing.T) {
	stats := map[cmps.ID]*analysis.CustomizationStats{
		cmps.OneTrust: {
			CMP: cmps.OneTrust, Websites: 30,
			Variants: map[string]int{"footer-link": 30},
			FooterTexts: map[string]int{
				"Do Not Sell My Personal Information": 15,
				"Cookie Settings":                     11,
				"Cookie Preferences":                  4,
			},
		},
	}
	first := Customization(stats)
	for i := 0; i < 20; i++ {
		if got := Customization(stats); got != first {
			t.Fatalf("render %d differs from the first:\n%s\nfirst:\n%s", i, got, first)
		}
	}
	prefs := strings.Index(first, "Cookie Preferences")
	settings := strings.Index(first, "Cookie Settings")
	sell := strings.Index(first, "Do Not Sell")
	if prefs < 0 || !(prefs < settings && settings < sell) {
		t.Errorf("footer rows not in sorted order:\n%s", first)
	}
}

func TestMissingDataRendering(t *testing.T) {
	out := MissingData(&analysis.MissingData{ToplistSize: 10_000, NeverShared: 1076, Unreachable: 315})
	if !strings.Contains(out, "1076") || !strings.Contains(out, "315") {
		t.Errorf("missing data rendering malformed:\n%s", out)
	}
}

func TestPriorWorkRendering(t *testing.T) {
	out := PriorWork()
	if !strings.Contains(out, "Nouwens") || !strings.Contains(out, "longitudinal") || !strings.Contains(out, "38 times") {
		t.Errorf("prior work rendering malformed:\n%s", out)
	}
}

func TestTimingSummary(t *testing.T) {
	out := Timing("accept", []float64{1, 2, 3})
	if !strings.Contains(out, "median=2.00") {
		t.Errorf("timing summary malformed: %s", out)
	}
	if !strings.Contains(Timing("empty", nil), "no data") {
		t.Error("empty sample handling")
	}
}
