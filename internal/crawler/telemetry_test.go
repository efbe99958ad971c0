package crawler

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
)

// telClock is a fixed clock: with it, politeness reservations are pure
// arithmetic and every span timestamp is constant.
func telClock() func() time.Time {
	at := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	return func() time.Time { return at }
}

// With a fixed clock, successive reservations of the same domain step
// the schedule forward by exactly PerDomainDelay each time.
func TestPolitenessReserveDeterministic(t *testing.T) {
	w := crawlWorld(t)
	const delay = 10 * time.Second
	p := NewStreamPlatform(w, StreamConfig{PerDomainDelay: delay, Now: telClock()})
	for i, want := range []time.Duration{0, delay, 2 * delay, 3 * delay} {
		if got := p.politenessReserve("example.com"); got != want {
			t.Errorf("reservation %d = %v, want %v", i, got, want)
		}
	}
	if got := p.politenessReserve("other.org"); got != 0 {
		t.Errorf("fresh domain reservation = %v, want 0", got)
	}
}

// streamTraceRun runs the platform over a deterministic feed with a
// fixed-clock tracer and returns the full NDJSON export.
func streamTraceRun(t *testing.T, workers int) string {
	t.Helper()
	w := crawlWorld(t)
	tr := obs.NewTracer(obs.TracerConfig{Clock: telClock()})
	p := NewStreamPlatform(w, StreamConfig{
		Seed:           7,
		Workers:        workers,
		PerDomainDelay: time.Nanosecond,
		Retry:          resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond},
		Tracer:         tr,
		Now:            telClock(),
	})
	store := capture.NewMemStore()
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(ctx, store)
	}()
	feed := socialfeed.New(w, socialfeed.Config{Seed: 5, SharesPerDay: 200})
	for day := simtime.Day(0); day < 2; day++ {
		for _, s := range feed.Day(day) {
			if err := p.Submit(ctx, day, s); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
	}
	p.Close()
	<-done
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The headline determinism contract: the streaming pipeline's full
// span export — visits, retries, store writes — is byte-identical
// across worker counts under a fixed clock. Span identity is
// structural and export order canonical, so goroutine interleaving
// cannot leak into the bytes.
func TestStreamTraceDeterministicAcrossWorkers(t *testing.T) {
	a := streamTraceRun(t, 2)
	b := streamTraceRun(t, 8)
	if a != b {
		t.Fatalf("trace export differs between 2 and 8 workers:\n--- 2 workers (%d bytes)\n%.2000s\n--- 8 workers (%d bytes)\n%.2000s",
			len(a), a, len(b), b)
	}
	for _, want := range []string{`"name":"visit"`, `"name":"store"`} {
		if !strings.Contains(a, want) {
			t.Errorf("export missing %s", want)
		}
	}
}
