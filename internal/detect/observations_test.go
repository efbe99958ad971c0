package detect_test

// The per-domain aggregate of detector output — the ≥⅓-captures site
// heuristic, the multi-CMP count, the daily share distribution — is
// held by analysis.PresenceFold. These tests pin that aggregation from
// the detector's side; they sit in the external test package because
// analysis imports detect.

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/detect"
	"repro/internal/simtime"
)

func hostCap(domain string, day simtime.Day, hosts ...string) *capture.Capture {
	c := &capture.Capture{FinalDomain: domain, Day: day, Status: 200}
	for _, h := range hosts {
		c.Requests = append(c.Requests, capture.Request{Host: h, Status: 200})
	}
	return c
}

func newFold() *analysis.PresenceFold {
	return analysis.NewPresenceFold(detect.Default())
}

func TestObservationsAggregation(t *testing.T) {
	f := newFold()
	// Day 5: two captures with the CMP, one without → classified
	// OneTrust (share 2/3 ≥ 1/3).
	f.Record(hostCap("a.com", 5, "cdn.cookielaw.org"))
	f.Record(hostCap("a.com", 5, "cdn.cookielaw.org"))
	f.Record(hostCap("a.com", 5, "www.a.com"))
	// Day 9: one of four captures has it → below the ⅓ heuristic.
	f.Record(hostCap("a.com", 9, "cdn.cookielaw.org"))
	f.Record(hostCap("a.com", 9, "www.a.com"))
	f.Record(hostCap("a.com", 9, "www.a.com"))
	f.Record(hostCap("a.com", 9, "www.a.com"))
	// Failed captures are ignored.
	f.Record(&capture.Capture{FinalDomain: "a.com", Failed: true})

	if f.Total != 7 {
		t.Errorf("Total = %d", f.Total)
	}
	if f.NumDomains() != 1 {
		t.Errorf("NumDomains = %d", f.NumDomains())
	}
	if !f.Observed("a.com") || f.Observed("unknown.com") {
		t.Error("Observed must report exactly the folded domains")
	}
	days := f.DayObservations("a.com", detect.SiteHeuristicThreshold)
	if len(days) != 2 {
		t.Fatalf("days = %+v", days)
	}
	if days[0].Day != 5 || days[0].CMP != cmps.OneTrust || days[0].Captures != 3 {
		t.Errorf("day 5: %+v", days[0])
	}
	if days[1].Day != 9 || days[1].CMP != cmps.None || days[1].Captures != 4 {
		t.Errorf("day 9: %+v", days[1])
	}
	// With a lower threshold the day-9 observation flips.
	loose := f.DayObservations("a.com", 0.2)
	if loose[1].CMP != cmps.OneTrust {
		t.Error("threshold override not applied")
	}
	if f.DayObservations("unknown.com", detect.SiteHeuristicThreshold) != nil {
		t.Error("unknown domains must return nil")
	}
}

func TestObservationsMultiCMP(t *testing.T) {
	f := newFold()
	f.Record(hostCap("a.com", 1, "cdn.cookielaw.org", "consent.trustarc.com"))
	if f.MultiCMP != 1 {
		t.Errorf("MultiCMP = %d", f.MultiCMP)
	}
}

func TestDailyShareDistribution(t *testing.T) {
	f := newFold()
	// Domain with 10/10 CMP captures on one day.
	for i := 0; i < 10; i++ {
		f.Record(hostCap("high.com", 3, "consent.cookiebot.com"))
	}
	// Domain with 0/10.
	for i := 0; i < 10; i++ {
		f.Record(hostCap("low.com", 3, "www.low.com"))
	}
	// Domain with 5/10 — the anomalous middle.
	for i := 0; i < 10; i++ {
		hosts := []string{"www.mid.com"}
		if i%2 == 0 {
			hosts = []string{"consent.cookiebot.com"}
		}
		f.Record(hostCap("mid.com", 3, hosts...))
	}
	below, between, above := f.DailyShareDistribution(5, 0.05, 0.95)
	if below != 1 || between != 1 || above != 1 {
		t.Errorf("distribution = %d/%d/%d, want 1/1/1", below, between, above)
	}
	if got := f.Domains(); !reflect.DeepEqual(got, []string{"high.com", "low.com", "mid.com"}) {
		t.Errorf("Domains = %v, want sorted", got)
	}
}
