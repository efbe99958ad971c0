package detect

import (
	"testing"

	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/simtime"
)

func capWithHosts(domain string, day simtime.Day, hosts ...string) *capture.Capture {
	c := &capture.Capture{FinalDomain: domain, Day: day, Status: 200}
	for _, h := range hosts {
		c.Requests = append(c.Requests, capture.Request{Host: h, Status: 200})
	}
	return c
}

func TestFingerprintsCoverAllCMPs(t *testing.T) {
	fps := Fingerprints()
	if len(fps) != cmps.Count {
		t.Fatalf("fingerprints = %d, want %d", len(fps), cmps.Count)
	}
	seen := map[cmps.ID]bool{}
	for _, fp := range fps {
		if fp.Hostname == "" {
			t.Errorf("%s: missing hostname indicator (Table A.2)", fp.CMP)
		}
		if fp.CSSSelector == "" {
			t.Errorf("%s: missing CSS fingerprint", fp.CMP)
		}
		seen[fp.CMP] = true
	}
	for _, c := range cmps.All() {
		if !seen[c] {
			t.Errorf("no fingerprint for %s", c)
		}
	}
}

func TestTableA2Hostnames(t *testing.T) {
	// The indicator hostnames are normative (Table A.2).
	want := map[cmps.ID]string{
		cmps.OneTrust:  "cdn.cookielaw.org",
		cmps.Quantcast: "quantcast.mgr.consensu.org",
		cmps.TrustArc:  "consent.trustarc.com",
		cmps.Cookiebot: "consent.cookiebot.com",
		cmps.LiveRamp:  "cmp.choice.faktor.io",
		cmps.Crownpeak: "iabmap.evidon.com",
	}
	for c, host := range want {
		if c.Hostname() != host {
			t.Errorf("%s hostname = %q, want %q", c, c.Hostname(), host)
		}
		if cmps.ByHostname(host) != c {
			t.Errorf("reverse lookup of %q broken", host)
		}
	}
	if cmps.ByHostname("example.com") != cmps.None {
		t.Error("unknown hostnames must map to None")
	}
}

func TestDetect(t *testing.T) {
	det := Default()
	c := capWithHosts("example.com", 0,
		"www.example.com", "www.google-analytics.com", "cdn.cookielaw.org")
	got := det.Detect(c)
	if len(got) != 1 || got[0] != cmps.OneTrust {
		t.Errorf("Detect = %v", got)
	}
	if det.DetectOne(c) != cmps.OneTrust {
		t.Error("DetectOne mismatch")
	}
	none := capWithHosts("example.com", 0, "www.example.com", "cdn.jsdelivr.net")
	if len(det.Detect(none)) != 0 || det.DetectOne(none) != cmps.None {
		t.Error("trackers must not be detected as CMPs")
	}
	multi := capWithHosts("example.com", 0, "cdn.cookielaw.org", "consent.cookiebot.com")
	if len(det.Detect(multi)) != 2 {
		t.Error("multi-CMP pages must report both")
	}
}

func TestDetectMask(t *testing.T) {
	det := Default()
	multi := capWithHosts("example.com", 0,
		"www.example.com", "consent.cookiebot.com", "cdn.cookielaw.org", "consent.cookiebot.com")
	first, mask := det.DetectMask(multi)
	if first != cmps.Cookiebot {
		t.Errorf("first = %v, want Cookiebot (first in request order)", first)
	}
	wantMask := uint32(1<<uint(cmps.Cookiebot) | 1<<uint(cmps.OneTrust))
	if mask != wantMask {
		t.Errorf("mask = %b, want %b", mask, wantMask)
	}
	if first != det.DetectOne(multi) {
		t.Error("DetectMask first must agree with DetectOne")
	}
	if _, mask := det.DetectMask(capWithHosts("x.com", 0, "cdn.jsdelivr.net")); mask != 0 {
		t.Errorf("no-CMP capture: mask = %b, want 0", mask)
	}
}

// TestDetectionNoAllocs pins the allocation contract of the per-capture
// hot path: DetectOne, DetectMask, and Detect on no-match captures must
// not allocate (Record runs them under a shard lock for every capture).
func TestDetectionNoAllocs(t *testing.T) {
	det := Default()
	match := capWithHosts("example.com", 0,
		"www.example.com", "www.google-analytics.com", "cdn.cookielaw.org")
	miss := capWithHosts("example.com", 0, "www.example.com", "cdn.jsdelivr.net")
	checks := []struct {
		name string
		fn   func()
	}{
		{"DetectOne/match", func() { det.DetectOne(match) }},
		{"DetectOne/miss", func() { det.DetectOne(miss) }},
		{"DetectMask/match", func() { det.DetectMask(match) }},
		{"DetectMask/miss", func() { det.DetectMask(miss) }},
		{"Detect/miss", func() { det.Detect(miss) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
}

func TestDetectDOM(t *testing.T) {
	det := Default()
	c := &capture.Capture{DOM: `<div class="qc-cmp-ui">…</div>`}
	if det.DetectDOM(c) != cmps.Quantcast {
		t.Error("DOM fingerprint missed")
	}
	if det.DetectDOM(&capture.Capture{}) != cmps.None {
		t.Error("empty DOM must yield None")
	}
}

func TestHasConsentLanguage(t *testing.T) {
	yes := &capture.Capture{ScreenshotText: "We value your privacy. We and our partners…"}
	no := &capture.Capture{ScreenshotText: "Breaking news: weather tomorrow."}
	if !HasConsentLanguage(yes) || HasConsentLanguage(no) {
		t.Error("GDPR phrase matching broken")
	}
}
