package analysis

import (
	"testing"

	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/detect"
	"repro/internal/interp"
	"repro/internal/simtime"
	"repro/internal/toplist"
)

// fakePresence builds a PresenceDB directly from interval maps.
func fakePresence(m map[string][]interp.Interval) *PresenceDB {
	return &PresenceDB{intervals: m}
}

func end() simtime.Day { return simtime.Day(simtime.NumDays) }

func TestPresenceDB(t *testing.T) {
	fold := NewPresenceFold(detect.Default())
	rec := func(domain string, day simtime.Day, host string) {
		c := &capture.Capture{FinalDomain: domain, Day: day, Status: 200}
		c.Requests = append(c.Requests, capture.Request{Host: host})
		fold.Record(c)
	}
	rec("a.com", 100, "cdn.cookielaw.org")
	rec("a.com", 150, "cdn.cookielaw.org")
	rec("b.com", 100, "www.b.com") // never a CMP

	db := fold.Presence()
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
	if db.CMPAt("a.com", 120) != cmps.OneTrust {
		t.Error("interpolated presence missing")
	}
	if db.CMPAt("b.com", 100) != cmps.None {
		t.Error("CMP-less domain must have no presence")
	}
	if db.Intervals("a.com") == nil || db.Intervals("c.com") != nil {
		t.Error("Intervals accessor broken")
	}
	if len(db.Domains()) != 1 {
		t.Error("Domains accessor broken")
	}
}

func TestMarketShareByRank(t *testing.T) {
	day := simtime.Date(2020, 5, 15)
	list := &toplist.List{Domains: []string{"a.com", "b.com", "c.com", "d.com"}}
	db := fakePresence(map[string][]interp.Interval{
		"a.com": {{CMP: cmps.Quantcast, Start: 0, End: end()}},
		"c.com": {{CMP: cmps.OneTrust, Start: 0, End: end()}},
	})
	pts := MarketShareByRank(db, list, day, []int{2, 4})
	if len(pts) != 2 {
		t.Fatalf("points = %+v", pts)
	}
	if pts[0].Size != 2 || pts[0].Count[cmps.Quantcast] != 1 || pts[0].TotalShare != 0.5 {
		t.Errorf("size-2 point: %+v", pts[0])
	}
	if pts[1].Size != 4 || pts[1].TotalShare != 0.5 || pts[1].Share[cmps.OneTrust] != 0.25 {
		t.Errorf("size-4 point: %+v", pts[1])
	}
}

func TestMarketShareOversizedRequest(t *testing.T) {
	list := &toplist.List{Domains: []string{"a.com", "b.com"}}
	db := fakePresence(map[string][]interp.Interval{
		"a.com": {{CMP: cmps.Quantcast, Start: 0, End: end()}},
	})
	pts := MarketShareByRank(db, list, 100, []int{1_000_000})
	if len(pts) != 1 || pts[0].Size != 2 {
		t.Fatalf("oversized size must clamp to the list: %+v", pts)
	}
}

func TestEUUKShare(t *testing.T) {
	db := fakePresence(map[string][]interp.Interval{
		"a.co.uk": {{CMP: cmps.Quantcast, Start: 0, End: end()}},
		"b.de":    {{CMP: cmps.Quantcast, Start: 0, End: end()}},
		"c.com":   {{CMP: cmps.Quantcast, Start: 0, End: end()}},
		"d.com":   {{CMP: cmps.OneTrust, Start: 0, End: end()}},
	})
	share := EUUKShare(db, 100)
	if got := share[cmps.Quantcast]; got < 0.66 || got > 0.67 {
		t.Errorf("Quantcast EU+UK share = %v, want 2/3", got)
	}
	if share[cmps.OneTrust] != 0 {
		t.Errorf("OneTrust share = %v", share[cmps.OneTrust])
	}
}

func TestAdoptionOverTime(t *testing.T) {
	db := fakePresence(map[string][]interp.Interval{
		"a.com": {{CMP: cmps.Quantcast, Start: 100, End: end()}},
		"b.com": {{CMP: cmps.OneTrust, Start: 400, End: end()}},
		"x.com": {{CMP: cmps.OneTrust, Start: 0, End: end()}}, // not in the set
	})
	pts := AdoptionOverTime(db, []string{"a.com", "b.com", "c.com"}, 50)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	if got := At(pts, 0).Total; got != 0 {
		t.Errorf("day 0 total = %d", got)
	}
	if got := At(pts, 200).Total; got != 1 {
		t.Errorf("day 200 total = %d", got)
	}
	if got := At(pts, 500); got.Total != 2 || got.Counts[cmps.OneTrust] != 1 {
		t.Errorf("day 500 = %+v", got)
	}
	if gf := GrowthFactor(pts, 200, 500); gf != 2 {
		t.Errorf("growth factor = %v", gf)
	}
	if gf := GrowthFactor(pts, 0, 500); gf != 0 {
		t.Errorf("growth from zero must be 0, got %v", gf)
	}
}

func TestSwitchingFlows(t *testing.T) {
	db := fakePresence(map[string][]interp.Interval{
		// Cookiebot → OneTrust switch.
		"a.com": {
			{CMP: cmps.Cookiebot, Start: 100, End: 300},
			{CMP: cmps.OneTrust, Start: 310, End: end()},
		},
		// Cookiebot → Quantcast switch.
		"b.com": {
			{CMP: cmps.Cookiebot, Start: 100, End: 300},
			{CMP: cmps.Quantcast, Start: 320, End: end()},
		},
		// Pure adoption.
		"c.com": {{CMP: cmps.OneTrust, Start: 50, End: end()}},
		// Adoption then abandon.
		"d.com": {{CMP: cmps.TrustArc, Start: 50, End: 500}},
	})
	m := SwitchingFlows(db)
	if m.Between(cmps.Cookiebot, cmps.OneTrust) != 1 || m.Between(cmps.Cookiebot, cmps.Quantcast) != 1 {
		t.Errorf("switch counts wrong: %+v", m.Counts)
	}
	if m.LossesToCompetitors(cmps.Cookiebot) != 2 || m.GainsFromCompetitors(cmps.Cookiebot) != 0 {
		t.Errorf("Cookiebot gains/losses = %d/%d",
			m.GainsFromCompetitors(cmps.Cookiebot), m.LossesToCompetitors(cmps.Cookiebot))
	}
	if m.NetCompetitive(cmps.Cookiebot) != -2 {
		t.Errorf("net = %d", m.NetCompetitive(cmps.Cookiebot))
	}
	if m.Adoptions(cmps.OneTrust) != 1 || m.Abandons(cmps.TrustArc) != 1 {
		t.Errorf("adoptions/abandons wrong")
	}
	if m.GainsFromCompetitors(cmps.OneTrust) != 1 {
		t.Errorf("OneTrust gains = %d", m.GainsFromCompetitors(cmps.OneTrust))
	}
}

func TestComputeCustomization(t *testing.T) {
	det := detect.Default()
	var caps []*capture.Capture
	add := func(domain, dom string, host string) {
		caps = append(caps, &capture.Capture{
			FinalDomain: domain, Status: 200, DOM: dom,
			Requests: []capture.Request{{Host: host}},
		})
	}
	add("a.com", `<div class="qc-cmp-ui" data-variant="direct-reject" data-confirm=false>I ACCEPT</div>`, "quantcast.mgr.consensu.org")
	add("b.com", `<div class="qc-cmp-ui" data-variant="more-options" data-confirm=false>Whatever</div>`, "quantcast.mgr.consensu.org")
	add("c.com", `<footer><a href="/privacy">Do Not Sell</a></footer>`, "cdn.cookielaw.org")
	add("d.com", `<div class="onetrust-banner-sdk" data-variant="direct-reject" data-confirm=true>Accept</div>`, "cdn.cookielaw.org")
	add("e.com", `<div data-variant="custom-api-only">OK</div>`, "consent.trustarc.com")
	// Duplicate capture of a.com must not double count.
	add("a.com", `<div class="qc-cmp-ui" data-variant="direct-reject" data-confirm=false>I ACCEPT</div>`, "quantcast.mgr.consensu.org")

	stats := ComputeCustomization(caps, det)
	qc := stats[cmps.Quantcast]
	if qc.Websites != 2 || qc.Variants["direct-reject"] != 1 || qc.Variants["more-options"] != 1 {
		t.Errorf("Quantcast stats: %+v", qc)
	}
	if qc.AffirmativeAccept != 1 || qc.FreeformAccept != 1 {
		t.Errorf("accept wording: %+v", qc)
	}
	ot := stats[cmps.OneTrust]
	if ot.Websites != 2 || ot.Variants["footer-link"] != 1 || ot.FooterTexts["Do Not Sell"] != 1 {
		t.Errorf("OneTrust stats: %+v", ot)
	}
	if ot.ConfirmRequired != 1 {
		t.Errorf("confirm-required = %d", ot.ConfirmRequired)
	}
	ta := stats[cmps.TrustArc]
	if ta.APIOnly != 1 {
		t.Errorf("TrustArc API-only = %d", ta.APIOnly)
	}
	if got := APIOnlyShare(stats); got != 0.2 {
		t.Errorf("API-only share = %v, want 0.2", got)
	}
	if qc.VariantShare("direct-reject") != 0.5 {
		t.Errorf("variant share = %v", qc.VariantShare("direct-reject"))
	}
}

func TestPriorWork(t *testing.T) {
	studies := PriorWork()
	if len(studies) < 6 {
		t.Fatal("Figure 1 needs the related-work inventory")
	}
	var this *PriorStudy
	for i := range studies {
		s := &studies[i]
		if s.Domains <= 0 || s.End.Before(s.Start) {
			t.Errorf("%s: malformed", s.Label)
		}
		if !s.Snapshot {
			this = s
		}
	}
	if this == nil {
		t.Fatal("this work must be the longitudinal entry")
	}
	for _, s := range studies {
		if s.Snapshot && s.Domains >= this.Domains {
			t.Errorf("%s: snapshot sample (%d) must be smaller than this work (%d)",
				s.Label, s.Domains, this.Domains)
		}
	}
	if QuantcastPromptChanges != 38 {
		t.Error("Quantcast prompt changed 38 times in the observation period")
	}
}
