package analysis

import (
	"testing"

	"repro/internal/capture"
	"repro/internal/crawler"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

func TestComputeTrackingSynthetic(t *testing.T) {
	var caps []*capture.Capture
	record := func(c *capture.Capture) { caps = append(caps, c) }
	// Site with an identifying tracker cookie and two trackers.
	record(&capture.Capture{
		FinalDomain: "a.com", FinalURL: "https://www.a.com/", Status: 200,
		Requests: []capture.Request{
			{Host: "www.a.com"}, {Host: "www.google-analytics.com"}, {Host: "cdn.jsdelivr.net"},
		},
		Cookies: []webworld.Cookie{{Domain: "www.google-analytics.com", Name: "uid", Value: "u-1"}},
	})
	// Clean site: first-party only, no identifying state.
	record(&capture.Capture{
		FinalDomain: "b.com", FinalURL: "https://www.b.com/", Status: 200,
		Requests: []capture.Request{{Host: "www.b.com"}},
	})
	// Duplicate capture of a.com must not double count.
	record(&capture.Capture{
		FinalDomain: "a.com", FinalURL: "https://www.a.com/", Status: 200,
		Requests: []capture.Request{{Host: "www.a.com"}},
	})

	stats := ComputeTracking(caps)
	if stats.Websites != 2 {
		t.Fatalf("websites = %d", stats.Websites)
	}
	if stats.WithIdentifyingCookie != 1 || stats.IdentifyingShare() != 0.5 {
		t.Errorf("identifying: %+v", stats)
	}
	if stats.WithThirdPartyTracker != 1 || stats.TrackerShare() != 0.5 {
		t.Errorf("trackers: %+v", stats)
	}
	if stats.MeanThirdParties != 1 { // a.com has 2, b.com has 0
		t.Errorf("mean third parties = %v", stats.MeanThirdParties)
	}
}

// TestTrackingOnSyntheticWeb: the synthetic web reproduces the related
// work's headline — the overwhelming majority of sites store
// identifying state regardless of consent.
func TestTrackingOnSyntheticWeb(t *testing.T) {
	world := webworld.New(webworld.Config{Seed: 1, Domains: 3_000})
	var domains []string
	for _, d := range world.Domains()[:600] {
		domains = append(domains, d.Name)
	}
	c := &crawler.Campaign{World: world, Domains: domains, Day: simtime.Table1Snapshot}
	var uni []*capture.Capture
	for _, cap := range c.Run() {
		if ConfigKeyOf(cap) == EUUniversityDefaultKey() {
			uni = append(uni, cap)
		}
	}
	stats := ComputeTracking(uni)
	if stats.Websites < 300 {
		t.Fatalf("websites = %d", stats.Websites)
	}
	if share := stats.IdentifyingShare(); share < 0.80 {
		t.Errorf("identifying share = %.2f, want ≈0.9 (Sanchez-Rola et al.)", share)
	}
	if stats.MeanThirdParties < 1 {
		t.Errorf("mean third parties = %.1f, implausibly low", stats.MeanThirdParties)
	}
}
