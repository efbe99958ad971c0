package crawler

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

// stressWorld is shared across stress iterations (construction is the
// expensive part).
var stressWorld = struct {
	once sync.Once
	w    *webworld.World
}{}

func getStressWorld() *webworld.World {
	stressWorld.once.Do(func() {
		stressWorld.w = webworld.New(webworld.Config{Seed: 9, Domains: 400})
	})
	return stressWorld.w
}

// checkStressInvariants asserts the pipeline's accounting after Run
// has returned: every accepted submission ends in exactly one of
// recorded / dead-lettered / dropped, and no share is both recorded
// and dead-lettered. When the platform ran with live telemetry, the
// metric counters must tell the same story as the mutex-guarded
// ledger.
func checkStressInvariants(t *testing.T, name string, p *StreamPlatform, store *capture.MemStore, accepted int64) {
	t.Helper()
	st := p.Stats()
	if m := p.cfg.Metrics; m != nil {
		if got := m.Succeeded.Value(); got != st.Succeeded {
			t.Errorf("%s: succeeded metric %d != ledger %d", name, got, st.Succeeded)
		}
		if got := m.Failed.Value(); got != st.FailedRecorded {
			t.Errorf("%s: failed metric %d != ledger %d", name, got, st.FailedRecorded)
		}
		if got := m.Retries.Value(); got != st.Retries {
			t.Errorf("%s: retries metric %d != ledger %d", name, got, st.Retries)
		}
		var deadTotal int64
		for _, c := range m.deadLetters {
			deadTotal += c.Value()
		}
		if want := st.DeadLettered + st.Dropped; deadTotal != want {
			t.Errorf("%s: dead-letter metrics sum %d != ledger %d", name, deadTotal, want)
		}
		if snap := m.VisitSeconds.Snapshot(); snap.Count != st.Succeeded+st.FailedRecorded+st.DeadLettered {
			t.Errorf("%s: visit latency observations %d != processed shares %d",
				name, snap.Count, st.Succeeded+st.FailedRecorded+st.DeadLettered)
		}
	}
	if st.Submitted != accepted {
		t.Errorf("%s: platform counted %d submissions, test accepted %d", name, st.Submitted, accepted)
	}
	if got := p.Captures() + st.DeadLettered + st.Dropped; got != st.Submitted {
		t.Errorf("%s: captures %d + dead %d + dropped %d = %d != submitted %d",
			name, p.Captures(), st.DeadLettered, st.Dropped, got, st.Submitted)
	}
	caps := store.All()
	if int64(len(caps)) != p.Captures() {
		t.Errorf("%s: store has %d captures, platform says %d", name, len(caps), p.Captures())
	}
	// Each submission used a unique URL: recorded and dead-lettered
	// sets must be disjoint and their union sized to the ledger.
	recorded := make(map[string]bool, len(caps))
	for _, c := range caps {
		if recorded[c.SeedURL] {
			t.Errorf("%s: %s recorded twice", name, c.SeedURL)
		}
		recorded[c.SeedURL] = true
	}
	dead := p.DeadLetters().Entries()
	deadSeen := make(map[string]bool, len(dead))
	for _, e := range dead {
		if recorded[e.URL] {
			t.Errorf("%s: %s both recorded and dead-lettered (%s)", name, e.URL, e.Reason)
		}
		if deadSeen[e.URL] {
			t.Errorf("%s: %s dead-lettered twice", name, e.URL)
		}
		deadSeen[e.URL] = true
	}
	if int64(len(dead)) != st.DeadLettered+st.Dropped {
		t.Errorf("%s: dead sink %d entries vs ledger %d", name, len(dead), st.DeadLettered+st.Dropped)
	}
}

// TestStreamStressOrderings exercises concurrent Submit / Run / Close
// / context-cancel interleavings under the race detector. Scenario
// "close": submitters finish, Close drains cleanly. Scenario "cancel":
// cancellation lands mid-stream while submitters race it.
func TestStreamStressOrderings(t *testing.T) {
	w := getStressWorld()
	var urlSeq atomic.Int64 // unique per submission, across all iterations

	domains := make([]*webworld.Domain, 0, 64)
	for _, d := range w.Domains() {
		if !d.Unreachable && d.RedirectTo == "" {
			domains = append(domains, d)
			if len(domains) == 64 {
				break
			}
		}
	}

	run := func(name string, iter int, cancelMidway bool) {
		reg := obs.NewRegistry()
		p := NewStreamPlatform(w, StreamConfig{
			Seed:           uint64(100 + iter),
			Workers:        6,
			QueueDepth:     32,
			PerDomainDelay: 100 * time.Microsecond,
			Retry:          resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, MaxDelay: 500 * time.Microsecond},
			Breaker:        resilience.BreakerConfig{Threshold: 4, Cooldown: 5 * time.Millisecond},
			Metrics:        NewStreamMetrics(reg),
			Tracer:         obs.NewTracer(obs.TracerConfig{}),
		})
		p.RegisterMetrics(reg)
		store := capture.NewMemStore()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()

		runDone := make(chan struct{})
		go func() {
			defer close(runDone)
			p.Run(ctx, store)
		}()

		const submitters = 4
		const perSubmitter = 120
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					d := domains[(s*perSubmitter+i)%len(domains)]
					share := socialfeed.Share{
						URL:    fmt.Sprintf("https://www.%s/s/%d", d.Name, urlSeq.Add(1)),
						Domain: d.Name,
					}
					if err := p.Submit(ctx, simtime.Day(150+i%3), share); err != nil {
						return // cancelled or stopped: stop submitting
					}
					accepted.Add(1)
				}
			}(s)
		}

		if cancelMidway {
			time.Sleep(time.Duration(2+iter) * time.Millisecond)
			cancel()
			wg.Wait()
		} else {
			wg.Wait()
			p.Close()
		}
		select {
		case <-runDone:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s/%d: Run did not return", name, iter)
		}
		if cancelMidway {
			// Close after Run returned must not break accounting, and
			// late Submits must be refused.
			p.Close()
			if err := p.Submit(context.Background(), 150, socialfeed.Share{URL: "x", Domain: "x"}); err != ErrStopped {
				t.Errorf("%s/%d: post-shutdown Submit = %v, want ErrStopped", name, iter, err)
			}
		}
		checkStressInvariants(t, fmt.Sprintf("%s/%d", name, iter), p, store, accepted.Load())
		// The exposition produced under concurrent load must stay
		// parseable.
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatalf("%s/%d: %v", name, iter, err)
		}
		if err := obs.ValidateExposition(&buf); err != nil {
			t.Errorf("%s/%d: invalid exposition: %v", name, iter, err)
		}
	}

	for iter := 0; iter < 3; iter++ {
		run("close", iter, false)
		run("cancel", iter, true)
	}
}
