package crawler

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

func crawlWorld(t *testing.T) *webworld.World {
	t.Helper()
	return webworld.New(webworld.Config{Seed: 1, Domains: 3_000})
}

func TestCrawlDayVantageSplit(t *testing.T) {
	w := crawlWorld(t)
	feed := socialfeed.New(w, socialfeed.Config{Seed: 1, SharesPerDay: 2_000})
	p := NewStreamPlatform(w, StreamConfig{Seed: 1, Workers: 8})
	store := capture.NewMemStore()
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx, store)
	}()
	for day := simtime.Day(0); day < 3; day++ {
		for _, s := range feed.Day(day) {
			if err := p.Submit(ctx, day, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Close()
	<-done
	us, eu := 0, 0
	for _, c := range store.All() {
		switch c.Vantage.Name {
		case capture.USCloud.Name:
			us++
		case capture.EUCloud.Name:
			eu++
		default:
			t.Fatalf("unexpected vantage %q", c.Vantage.Name)
		}
		if !c.Vantage.Cloud {
			t.Fatal("social crawls must come from cloud address space")
		}
	}
	total := us + eu
	if total == 0 {
		t.Fatal("no captures")
	}
	usShare := float64(us) / float64(total)
	if usShare < 0.45 || usShare > 0.55 {
		t.Errorf("US share = %.2f, want ≈0.50 (paper: 50%% of crawls from the EU)", usShare)
	}
	if p.Captures() != int64(total) {
		t.Errorf("Captures counter = %d, stored %d", p.Captures(), total)
	}
}

func TestSeedProbe(t *testing.T) {
	w := crawlWorld(t)
	var sawHTTPS, sawHTTPWWW, sawApex, sawUnreachable bool
	for _, d := range w.Domains()[:1000] {
		probe := SeedProbe(w, d.Name)
		switch probe.Outcome {
		case ProbeHTTPSWWW:
			sawHTTPS = true
			if probe.SeedURL != "https://www."+d.Name+"/" {
				t.Errorf("seed URL %q", probe.SeedURL)
			}
		case ProbeHTTPWWW:
			sawHTTPWWW = true
			if probe.SeedURL != "http://www."+d.Name+"/" {
				t.Errorf("seed URL %q", probe.SeedURL)
			}
			if d.HTTPSWWW || !d.HTTPWWW {
				t.Errorf("%s: http-www probe but HTTPSWWW=%v HTTPWWW=%v",
					d.Name, d.HTTPSWWW, d.HTTPWWW)
			}
		case ProbeHTTPApex:
			sawApex = true
			if probe.SeedURL != "http://"+d.Name+"/" {
				t.Errorf("seed URL %q", probe.SeedURL)
			}
		case ProbeUnreachable:
			sawUnreachable = true
			if probe.SeedURL != "" {
				t.Error("unreachable probes must not yield a seed URL")
			}
		}
	}
	if !sawHTTPS || !sawHTTPWWW || !sawApex || !sawUnreachable {
		t.Errorf("probe outcome coverage: https=%v http-www=%v apex=%v unreachable=%v",
			sawHTTPS, sawHTTPWWW, sawApex, sawUnreachable)
	}
	if SeedProbe(w, "missing.example").Outcome != ProbeUnreachable {
		t.Error("unknown domains must probe unreachable")
	}
}

// TestCampaignWorkerDeterminism pins the parallel campaign contract:
// probe slices and per-configuration store contents are byte-identical
// at any worker count.
func TestCampaignWorkerDeterminism(t *testing.T) {
	w := crawlWorld(t)
	var domains []string
	for _, d := range w.Domains()[:300] {
		domains = append(domains, d.Name)
	}
	run := func(workers int) *CampaignResult {
		c := &Campaign{World: w, Domains: domains, Day: simtime.Table1Snapshot, Workers: workers}
		return c.Run()
	}
	serial := run(1)
	for _, workers := range []int{2, 8, 64, 1000} {
		par := run(workers)
		if len(par.Probes) != len(serial.Probes) {
			t.Fatalf("workers=%d: %d probes, serial %d", workers, len(par.Probes), len(serial.Probes))
		}
		for i := range serial.Probes {
			if par.Probes[i] != serial.Probes[i] {
				t.Fatalf("workers=%d: probe %d = %+v, serial %+v",
					workers, i, par.Probes[i], serial.Probes[i])
			}
		}
		for key, ss := range serial.Stores {
			ps := par.Stores[key]
			if ps == nil {
				t.Fatalf("workers=%d: missing store %q", workers, key)
			}
			if ps.Len() != ss.Len() {
				t.Fatalf("workers=%d %s: %d captures, serial %d", workers, key, ps.Len(), ss.Len())
			}
			pc, sc := ps.All(), ss.All()
			for i := range sc {
				want, err := capturedb.Encode(sc[i])
				if err != nil {
					t.Fatal(err)
				}
				got, err := capturedb.Encode(pc[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d %s: capture %d differs from serial:\n got %s\nwant %s",
						workers, key, i, got, want)
				}
			}
		}
	}
}

func TestToplistCampaign(t *testing.T) {
	w := crawlWorld(t)
	var domains []string
	for _, d := range w.Domains()[:300] {
		domains = append(domains, d.Name)
	}
	c := &Campaign{World: w, Domains: domains, Day: simtime.Table1Snapshot}
	res := c.Run()
	if len(res.Probes) != 300 {
		t.Fatalf("probes = %d", len(res.Probes))
	}
	configs := ToplistConfigs()
	if len(configs) != 6 {
		t.Fatalf("want the six Table 1 configurations, got %d", len(configs))
	}
	keys := map[string]bool{}
	for _, tc := range configs {
		key := ConfigKey(tc)
		if keys[key] {
			t.Fatalf("duplicate config key %q", key)
		}
		keys[key] = true
		store := res.Stores[key]
		if store == nil {
			t.Fatalf("missing store for %q", key)
		}
		if store.Len() == 0 {
			t.Errorf("store %q empty", key)
		}
		// Toplist crawls store the DOM for non-failed captures.
		for _, cap := range store.All() {
			if !cap.Failed && cap.Status == 200 && cap.DOM == "" {
				t.Errorf("%s: toplist capture without DOM", key)
				break
			}
		}
	}
	// Unreachable domains are probed but produce no captures.
	unreachable := 0
	for _, p := range res.Probes {
		if p.Outcome == ProbeUnreachable {
			unreachable++
		}
	}
	want := (300 - unreachable) // per config
	for key, store := range res.Stores {
		if store.Len() != want {
			t.Errorf("%s: %d captures, want %d", key, store.Len(), want)
		}
	}
}

func TestProbeOutcomeString(t *testing.T) {
	for _, o := range []ProbeOutcome{ProbeHTTPSWWW, ProbeHTTPWWW, ProbeHTTPApex, ProbeUnreachable} {
		if o.String() == "" {
			t.Error("empty outcome name")
		}
	}
}
