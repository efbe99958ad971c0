package analysis

import (
	"testing"

	"repro/internal/capture"
	"repro/internal/cmps"
	"repro/internal/crawler"
	"repro/internal/detect"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

// craftCampaign builds a campaign capture list with hand-made
// captures, laid out as Campaign.Run lays it out (domain by domain,
// six configurations each): domain a.com shows OneTrust everywhere;
// b.com shows Quantcast only at the EU university; c.com never shows
// a CMP.
func craftCampaign() []*capture.Capture {
	var caps []*capture.Capture
	for _, domain := range []string{"a.com", "c.com", "b.com"} {
		for _, tc := range crawler.ToplistConfigs() {
			c := &capture.Capture{FinalDomain: domain, Status: 200,
				Vantage: tc.Vantage, Config: tc.Opts.ConfigLabel()}
			host := ""
			switch {
			case domain == "a.com":
				host = "cdn.cookielaw.org"
			case domain == "b.com" && tc.Vantage.Name == capture.EUUniversity.Name:
				host = "quantcast.mgr.consensu.org"
			}
			if host != "" {
				c.Requests = append(c.Requests, capture.Request{Host: host})
			}
			caps = append(caps, c)
		}
	}
	return caps
}

func TestComputeVantageTableUnit(t *testing.T) {
	vt := ComputeVantageTable(craftCampaign(), detect.Default())
	if len(vt.Configs) != 6 {
		t.Fatalf("configs = %d", len(vt.Configs))
	}
	us := USCloudKey()
	uni := EUUniversityDefaultKey()
	if vt.Count(cmps.OneTrust, us) != 1 || vt.Count(cmps.Quantcast, us) != 0 {
		t.Errorf("US counts: OT=%d QC=%d", vt.Count(cmps.OneTrust, us), vt.Count(cmps.Quantcast, us))
	}
	if vt.Count(cmps.Quantcast, uni) != 1 {
		t.Errorf("university misses Quantcast")
	}
	if vt.Totals[us] != 1 || vt.Totals[uni] != 2 {
		t.Errorf("totals: us=%d uni=%d", vt.Totals[us], vt.Totals[uni])
	}
	if vt.Coverage[uni] != 1 || vt.Coverage[us] != 0.5 {
		t.Errorf("coverage: us=%v uni=%v", vt.Coverage[us], vt.Coverage[uni])
	}
	if vt.Coverage[EUUniversityExtendedKey()] != 1 || vt.Coverage[EUCloudKey()] != 0.5 {
		t.Error("column keys broken")
	}
}

func TestComputeMissingDataUnit(t *testing.T) {
	w := webworld.New(webworld.Config{Seed: 1, Domains: 3_000})
	var domains []string
	for _, d := range w.Domains()[:1_000] {
		domains = append(domains, d.Name)
	}
	// Nothing observed: every domain is never-shared and classified.
	md := ComputeMissingData(w, domains, func(string) bool { return false })
	if md.ToplistSize != 1_000 || md.NeverShared != 1_000 {
		t.Fatalf("breakdown: %+v", md)
	}
	sum := md.Unreachable + md.NoValidResponse + md.HTTPError +
		md.RedirectedElswhere + md.Infrastructure + md.Other
	if sum != md.NeverShared {
		t.Errorf("classification must partition: %d != %d", sum, md.NeverShared)
	}
	// Everything observed: nothing missing.
	md = ComputeMissingData(w, domains, func(string) bool { return true })
	if md.NeverShared != 0 {
		t.Errorf("fully observed toplist: %+v", md)
	}
	// Unknown domains are skipped, not misclassified.
	md = ComputeMissingData(w, []string{"not-in-universe.example"}, func(string) bool { return false })
	if md.NeverShared != 0 {
		t.Errorf("unknown domain classified: %+v", md)
	}
}

func TestTimeoutLossUnit(t *testing.T) {
	w := webworld.New(webworld.Config{Seed: 1, Domains: 5_000})
	var domains []string
	for _, d := range w.Domains()[:1_500] {
		domains = append(domains, d.Name)
	}
	c := &crawler.Campaign{World: w, Domains: domains, Day: simtime.Table1Snapshot}
	loss := TimeoutLoss(c.Run(), detect.Default())
	if loss < 0 || loss > 0.10 {
		t.Errorf("timeout loss = %.3f, want ≈0.02", loss)
	}
}

func TestPromptChangesObservedUnit(t *testing.T) {
	det := detect.Default()
	caps := []*capture.Capture{
		{Status: 200, Requests: []capture.Request{{Host: "quantcast.mgr.consensu.org"}},
			DOM: `<div class="qc-cmp-ui" data-prompt-rev="3">A</div>`},
		{Status: 200, Requests: []capture.Request{{Host: "quantcast.mgr.consensu.org"}},
			DOM: `<div class="qc-cmp-ui" data-prompt-rev="3">A</div>`},
		{Status: 200, Requests: []capture.Request{{Host: "quantcast.mgr.consensu.org"}},
			DOM: `<div class="qc-cmp-ui" data-prompt-rev="5">B</div>`},
		// Another CMP's capture must not count toward Quantcast.
		{Status: 200, Requests: []capture.Request{{Host: "cdn.cookielaw.org"}},
			DOM: `<div data-prompt-rev="9">C</div>`},
		// Failed captures are ignored.
		{Failed: true, DOM: `<div data-prompt-rev="7">D</div>`},
	}
	revs := PromptRevisionsObserved(caps, det, cmps.Quantcast)
	if len(revs) != 2 || !revs[3] || !revs[5] {
		t.Errorf("revisions = %v", revs)
	}
	if got := PromptChangesObserved(caps, det, cmps.Quantcast); got != 1 {
		t.Errorf("changes = %d, want 1", got)
	}
	if got := PromptChangesObserved(nil, det, cmps.Quantcast); got != 0 {
		t.Errorf("empty changes = %d", got)
	}
}

func TestDefaultSizes(t *testing.T) {
	sizes := DefaultSizes()
	if len(sizes) == 0 || sizes[0] != 100 || sizes[len(sizes)-1] != 1_000_000 {
		t.Errorf("sizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatal("sizes must increase")
		}
	}
}
