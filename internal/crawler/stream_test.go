package crawler

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

func TestStreamPlatformProcessesAll(t *testing.T) {
	w := crawlWorld(t)
	feed := socialfeed.New(w, socialfeed.Config{Seed: 1, SharesPerDay: 300})
	p := NewStreamPlatform(w, StreamConfig{Seed: 1, Workers: 8, PerDomainDelay: time.Millisecond})
	store := capture.NewMemStore()

	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx, store)
	}()

	submitted := 0
	for day := simtime.Day(0); day < 3; day++ {
		for _, s := range feed.Day(day) {
			if err := p.Submit(ctx, day, s); err != nil {
				t.Errorf("submit: %v", err)
			}
			submitted++
		}
	}
	p.Close()
	<-done

	if int(p.Captures()) != submitted {
		t.Errorf("captures = %d, submitted %d", p.Captures(), submitted)
	}
	if n := len(store.All()); n != submitted {
		t.Errorf("store = %d", n)
	}
}

func TestStreamPlatformCancellation(t *testing.T) {
	w := crawlWorld(t)
	feed := socialfeed.New(w, socialfeed.Config{Seed: 2, SharesPerDay: 500})
	// A long per-domain delay makes in-flight work slow enough that
	// cancellation lands mid-stream.
	p := NewStreamPlatform(w, StreamConfig{Seed: 2, Workers: 2, PerDomainDelay: 5 * time.Millisecond, QueueDepth: 64})
	store := capture.NewMemStore()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx, store)
	}()

	shares := feed.Day(0)
	var submitErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for day := simtime.Day(0); ; day++ {
			for _, s := range shares {
				if err := p.Submit(ctx, day, s); err != nil {
					submitErr = err
					return
				}
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop after cancellation")
	}
	if submitErr != context.Canceled {
		t.Errorf("submit error = %v, want context.Canceled", submitErr)
	}
	if p.Captures() == 0 {
		t.Error("some captures should complete before cancellation")
	}
}

func TestStreamPlatformPoliteness(t *testing.T) {
	w := crawlWorld(t)
	var d *webworld.Domain
	for _, cand := range w.Domains() {
		if !cand.Unreachable && !cand.NeverShared && cand.RedirectTo == "" {
			d = cand
			break
		}
	}
	if d == nil {
		t.Skip("no crawlable domain")
	}
	const delay = 20 * time.Millisecond
	const hits = 5
	p := NewStreamPlatform(w, StreamConfig{Seed: 3, Workers: 4, PerDomainDelay: delay})
	store := capture.NewMemStore()
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx, store)
	}()
	start := time.Now()
	for i := 0; i < hits; i++ {
		share := socialfeed.Share{
			URL:    "https://www." + d.Name + d.SubsitePath(i),
			Domain: d.Name,
		}
		if err := p.Submit(ctx, 100, share); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	<-done
	elapsed := time.Since(start)
	// Five same-domain hits must serialize: at least 4 politeness gaps.
	if min := time.Duration(hits-1) * delay; elapsed < min {
		t.Errorf("elapsed %v < %v: politeness not enforced", elapsed, min)
	}
	if p.Captures() != hits {
		t.Errorf("captures = %d", p.Captures())
	}
}
