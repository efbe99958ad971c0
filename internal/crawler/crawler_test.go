package crawler

import (
	"context"
	"testing"

	"repro/internal/capture"
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

func TestProbeOutcomeString(t *testing.T) {
	for _, o := range []ProbeOutcome{ProbeHTTPSWWW, ProbeHTTPWWW, ProbeHTTPApex, ProbeUnreachable} {
		if o.String() == "" {
			t.Error("empty outcome name")
		}
	}
}
