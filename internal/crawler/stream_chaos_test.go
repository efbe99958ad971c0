package crawler

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/resilience"
	"repro/internal/resilience/chaos"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

// chaosRates are the acceptance-criteria fault rates: 5% transient
// 5xx, 2% connection drops, 1% anti-bot interstitials.
func chaosRates(seed uint64) chaos.Config {
	return chaos.Config{Seed: seed, FiveXXRate: 0.05, DropRate: 0.02, AntiBotRate: 0.01}
}

// runChaosStream pushes three feed days through a stream platform
// whose substrate injects faults, and returns the platform.
func runChaosStream(t *testing.T, w *webworld.World, inj *chaos.Injector, cfg StreamConfig) *StreamPlatform {
	t.Helper()
	cfg.Visitor = inj.Visitor(w)
	if cfg.PerDomainDelay == 0 {
		cfg.PerDomainDelay = 200 * time.Microsecond
	}
	p := NewStreamPlatform(w, cfg)
	store := capture.NewMemStore()
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx, store)
	}()
	feed := socialfeed.New(w, socialfeed.Config{Seed: 5, SharesPerDay: 400})
	for day := simtime.Day(200); day < 203; day++ {
		for _, s := range feed.Day(day) {
			if err := p.Submit(ctx, day, s); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
	}
	p.Close()
	<-done
	return p
}

// TestChaosStreamRetryCompletion is the acceptance bar: under injected
// faults (5% 5xx, 2% drops, 1% anti-bot) the retrying pipeline
// completes ≥99% of submitted shares, while the no-retry baseline in
// the same test is measurably worse. Both runs keep the full
// accounting invariant.
func TestChaosStreamRetryCompletion(t *testing.T) {
	// Inherent webworld outages are drawn per day, so the stream
	// pipeline's minute-scale retries cannot recover them (they land in
	// the dead-letter sink, correctly). Disable them to measure the
	// injected rates in isolation.
	w := webworld.New(webworld.Config{Seed: 1, Domains: 2_000, TransientDownRate: -1})

	check := func(name string, p *StreamPlatform) StreamStats {
		t.Helper()
		st := p.Stats()
		if got := p.Captures() + st.DeadLettered + st.Dropped; got != st.Submitted {
			t.Errorf("%s: captures %d + dead %d + dropped %d != submitted %d",
				name, p.Captures(), st.DeadLettered, st.Dropped, st.Submitted)
		}
		return st
	}

	baselineP := runChaosStream(t, w, chaos.New(chaosRates(7)), StreamConfig{Seed: 1, Workers: 8})
	base := check("baseline", baselineP)
	baseRate := float64(base.Succeeded) / float64(base.Submitted)
	// ~8% injected + ~2% inherent transient outages: well below 97%.
	if baseRate >= 0.97 {
		t.Fatalf("no-retry baseline succeeded %.2f%%: faults not biting", 100*baseRate)
	}
	if base.Retries != 0 || base.DeadLettered != 0 {
		t.Fatalf("baseline must not retry or dead-letter: %+v", base)
	}

	retryP := runChaosStream(t, w, chaos.New(chaosRates(7)), StreamConfig{
		Seed:    1,
		Workers: 8,
		Retry: resilience.RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   500 * time.Microsecond,
			MaxDelay:    2 * time.Millisecond,
		},
	})
	st := check("retry", retryP)
	rate := float64(st.Succeeded) / float64(st.Submitted)
	if rate < 0.99 {
		t.Fatalf("retrying pipeline succeeded %.2f%% (%d/%d), want ≥99%%; stats %+v, dead by reason %v",
			100*rate, st.Succeeded, st.Submitted, st, retryP.DeadLetters().ByReason())
	}
	if rate <= baseRate {
		t.Fatalf("retrying rate %.4f not above baseline %.4f", rate, baseRate)
	}
	if st.Retries == 0 {
		t.Fatal("retrying pipeline performed no retries under 8% faults")
	}
	// Whatever was dead-lettered is accounted with a reason.
	if int64(retryP.DeadLetters().Len()) != st.DeadLettered+st.Dropped {
		t.Fatalf("dead-letter sink has %d entries, stats say %d",
			retryP.DeadLetters().Len(), st.DeadLettered+st.Dropped)
	}
}

// TestChaosStreamScheduleDeterminism: two identical seeded runs of the
// retrying pipeline draw byte-identical fault schedules, even though
// worker interleaving differs.
func TestChaosStreamScheduleDeterminism(t *testing.T) {
	w := webworld.New(webworld.Config{Seed: 1, Domains: 800})
	var schedules [][]byte
	for run := 0; run < 2; run++ {
		inj := chaos.New(chaosRates(13))
		runChaosStream(t, w, inj, StreamConfig{
			Seed:    1,
			Workers: 2 + run*6,
			Retry:   resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond},
		})
		schedules = append(schedules, inj.Schedule())
	}
	if len(schedules[0]) == 0 {
		t.Fatal("no faults injected")
	}
	if !bytes.Equal(schedules[0], schedules[1]) {
		t.Fatalf("fault schedules differ across same-seed runs: %d vs %d bytes",
			len(schedules[0]), len(schedules[1]))
	}
}
