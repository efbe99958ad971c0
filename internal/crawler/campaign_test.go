package crawler_test

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/crawler"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

// campaignDomains returns the first n domains of a seeded world.
func campaignDomains(w *webworld.World, n int) []string {
	var domains []string
	for _, d := range w.Domains()[:n] {
		domains = append(domains, d.Name)
	}
	return domains
}

// byConfig groups a campaign's captures by analysis.ConfigKeyOf,
// keeping campaign order within each group.
func byConfig(caps []*capture.Capture) map[string][]*capture.Capture {
	out := make(map[string][]*capture.Capture)
	for _, c := range caps {
		key := analysis.ConfigKeyOf(c)
		out[key] = append(out[key], c)
	}
	return out
}

// TestCampaignWorkerDeterminism pins the parallel campaign contract:
// the ordered capture list is byte-identical at any worker count.
func TestCampaignWorkerDeterminism(t *testing.T) {
	w := webworld.New(webworld.Config{Seed: 1, Domains: 3_000})
	domains := campaignDomains(w, 300)
	encode := func(workers int) [][]byte {
		c := &crawler.Campaign{World: w, Domains: domains, Day: simtime.Table1Snapshot, Workers: workers}
		var out [][]byte
		for _, cap := range c.Run() {
			b, err := capturedb.Encode(cap)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	serial := encode(1)
	if len(serial) == 0 {
		t.Fatal("empty campaign")
	}
	for _, workers := range []int{2, 8, 64, 1000} {
		par := encode(workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d captures, serial %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if !bytes.Equal(par[i], serial[i]) {
				t.Fatalf("workers=%d: capture %d differs from serial:\n got %s\nwant %s",
					workers, i, par[i], serial[i])
			}
		}
	}
}

// TestCampaignLayout pins the shape of Run's result: every reachable
// domain contributes six consecutive captures, in toplist order, whose
// configuration keys follow ToplistConfigs(); unreachable domains
// contribute none.
func TestCampaignLayout(t *testing.T) {
	w := webworld.New(webworld.Config{Seed: 1, Domains: 3_000})
	domains := campaignDomains(w, 300)
	c := &crawler.Campaign{World: w, Domains: domains, Day: simtime.Table1Snapshot, Workers: 3}
	caps := c.Run()
	configs := crawler.ToplistConfigs()

	i, unreachable := 0, 0
	for _, d := range domains {
		probe := crawler.SeedProbe(w, d)
		if probe.Outcome == crawler.ProbeUnreachable {
			unreachable++
			continue
		}
		if i+len(configs) > len(caps) {
			t.Fatalf("campaign ends at %d captures, before %s", len(caps), d)
		}
		for _, tc := range configs {
			cap := caps[i]
			if cap.SeedURL != probe.SeedURL {
				t.Fatalf("capture %d seeded %q, want %s's %q", i, cap.SeedURL, d, probe.SeedURL)
			}
			if got, want := analysis.ConfigKeyOf(cap), crawler.ConfigKey(tc); got != want {
				t.Fatalf("capture %d (%s): config %q, want %q", i, d, got, want)
			}
			i++
		}
	}
	if i != len(caps) {
		t.Errorf("%d captures beyond the reachable domains' %d", len(caps)-i, i)
	}
	if unreachable == 0 || unreachable == len(domains) {
		t.Errorf("%d of %d domains unreachable: the sample must hold both kinds", unreachable, len(domains))
	}
}

func TestToplistCampaign(t *testing.T) {
	w := webworld.New(webworld.Config{Seed: 1, Domains: 3_000})
	domains := campaignDomains(w, 300)
	c := &crawler.Campaign{World: w, Domains: domains, Day: simtime.Table1Snapshot}
	groups := byConfig(c.Run())
	configs := crawler.ToplistConfigs()
	if len(configs) != 6 {
		t.Fatalf("want the six Table 1 configurations, got %d", len(configs))
	}
	if len(groups) != len(configs) {
		t.Errorf("captures carry %d configuration keys, want %d", len(groups), len(configs))
	}
	// Unreachable domains produce no captures.
	unreachable := 0
	for _, d := range domains {
		if crawler.SeedProbe(w, d).Outcome == crawler.ProbeUnreachable {
			unreachable++
		}
	}
	want := 300 - unreachable // per config
	for _, tc := range configs {
		key := crawler.ConfigKey(tc)
		caps := groups[key]
		if len(caps) != want {
			t.Errorf("%s: %d captures, want %d", key, len(caps), want)
		}
		// Toplist crawls store the DOM for non-failed captures.
		for _, cap := range caps {
			if !cap.Failed && cap.Status == 200 && cap.DOM == "" {
				t.Errorf("%s: toplist capture without DOM", key)
				break
			}
		}
	}
}

// TestCampaignRetriesRecoverTransients: the toplist campaign's weekly
// retry procedure recovers almost all transient outages, so per-config
// capture success rates approach the reachable-domain count.
func TestCampaignRetriesRecoverTransients(t *testing.T) {
	w := webworld.New(webworld.Config{Seed: 1, Domains: 2_000})
	c := &crawler.Campaign{World: w, Domains: campaignDomains(w, 500), Day: simtime.Table1Snapshot}
	for key, caps := range byConfig(c.Run()) {
		failed := 0
		for _, cap := range caps {
			if cap.Failed {
				failed++
			}
		}
		// Without retries ≈2% of captures would fail transiently; with
		// four attempts the residual rate is ≈0.02⁴.
		if failed > len(caps)/100 {
			t.Errorf("%s: %d/%d failed captures despite retries", key, failed, len(caps))
		}
	}
}
