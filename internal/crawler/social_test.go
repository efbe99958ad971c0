package crawler_test

// The social crawl as its callers run it: a StreamPlatform recording
// into analysis.PresenceFold, driven day by day by core.Study. These
// tests sit in the external test package because analysis and core
// import crawler.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/detect"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

// TestCrawlWindowProgress: the social crawl reports progress once per
// crawled day, in day order.
func TestCrawlWindowProgress(t *testing.T) {
	cfg := core.TestConfig()
	cfg.Domains = 3_000
	cfg.SharesPerDay = 50
	cfg.CrawlFrom, cfg.CrawlTo = 0, 4
	s := core.NewStudy(cfg)
	var days []simtime.Day
	s.RunSocialCrawl(func(day simtime.Day, captures int64) { days = append(days, day) })
	if len(days) != 5 {
		t.Fatalf("progress callbacks for days %v, want one per day 0–4", days)
	}
	for i, d := range days {
		if d != simtime.Day(i) {
			t.Errorf("callback %d reported day %d", i, d)
		}
	}
	if s.Observations.Total == 0 {
		t.Error("no captures recorded")
	}
}

// TestObservationsConcurrentCrawl runs a PresenceFold as the sink of a
// StreamPlatform at 1, 2 and 8 workers (under -race, the test of its
// locking): in whatever order the workers record, the fold equals a
// serial Fold of the same captures.
func TestObservationsConcurrentCrawl(t *testing.T) {
	w := webworld.New(webworld.Config{Seed: 1, Domains: 3_000})
	feed := socialfeed.New(w, socialfeed.Config{Seed: 4, SharesPerDay: 400})
	// Feed.Day is stateful (cross-day dedup): draw the shares once.
	shares := make([][]socialfeed.Share, 8)
	for day := range shares {
		shares[day] = feed.Day(simtime.Day(day))
	}
	det := detect.Default()
	for _, workers := range []int{1, 2, 8} {
		fold := analysis.NewPresenceFold(det)
		store := capture.NewMemStore()
		p := crawler.NewStreamPlatform(w, crawler.StreamConfig{Seed: 4, Workers: workers})
		ctx := context.Background()
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.Run(ctx, capture.MultiSink{fold, store})
		}()
		for day, ss := range shares {
			for _, s := range ss {
				if err := p.Submit(ctx, simtime.Day(day), s); err != nil {
					t.Fatal(err)
				}
			}
		}
		p.Close()
		<-done

		serial := analysis.NewPresenceFold(det)
		for _, c := range store.All() {
			serial.Fold(c)
		}
		if fold.Total == 0 {
			t.Fatalf("workers=%d: nothing folded", workers)
		}
		if fold.Total != serial.Total || fold.MultiCMP != serial.MultiCMP || fold.NumDomains() != serial.NumDomains() {
			t.Fatalf("workers=%d: total/multi/domains %d/%d/%d, serial %d/%d/%d", workers,
				fold.Total, fold.MultiCMP, fold.NumDomains(), serial.Total, serial.MultiCMP, serial.NumDomains())
		}
		got, want := fold.Presence(), serial.Presence()
		if got.Len() != want.Len() {
			t.Fatalf("workers=%d: %d domains with presence, serial %d", workers, got.Len(), want.Len())
		}
		for _, d := range serial.Domains() {
			if !reflect.DeepEqual(got.Intervals(d), want.Intervals(d)) {
				t.Errorf("workers=%d %s: intervals differ from the serial fold", workers, d)
			}
		}
	}
}
