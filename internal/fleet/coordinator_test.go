package fleet

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/simtime"
)

// fakeClock is an injectable, manually-advanced clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testItems fabricates n work items; domain repeats every `domains`
// items so politeness conflicts are constructible.
func testItems(n, domains int) []WorkItem {
	items := make([]WorkItem, n)
	for i := range items {
		d := fmt.Sprintf("d%d.com", i%domains)
		items[i] = WorkItem{
			Seq:    int64(i),
			URL:    fmt.Sprintf("https://%s/p/%d", d, i),
			Domain: d,
			Day:    simtime.Day(0),
		}
	}
	return items
}

// allCaptured fabricates a completion claiming every item captured.
func allCaptured(g *Frame) []Result {
	rs := make([]Result, g.N)
	for i := range rs {
		rs[i] = Result{Seq: g.First + int64(i), Captured: true}
	}
	return rs
}

func TestCoordinatorLeaseLifecycle(t *testing.T) {
	clock := newFakeClock()
	co, err := NewCoordinator(testItems(20, 20), CoordinatorConfig{
		LeaseSize: 8,
		LeaseTTL:  10 * time.Second,
		Now:       clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	g1 := co.Grant("w1")
	if g1.Type != FrameLeaseGrant || g1.First != 0 || g1.N != 8 {
		t.Fatalf("first grant = %+v", g1)
	}
	if f := co.Heartbeat("w1", g1.Lease); f.Type != FrameAck {
		t.Fatalf("heartbeat = %+v", f)
	}
	if f := co.Heartbeat("w2", g1.Lease); f.Type != FrameError {
		t.Fatalf("foreign heartbeat accepted: %+v", f)
	}
	if f := co.Complete("w1", g1.Lease, allCaptured(g1)); f.Type != FrameAck || co.Ledger().DuplicateCompletions != 0 {
		t.Fatalf("completion = %+v, ledger %+v", f, co.Ledger())
	}
	// A second completion for the same lease is a duplicate, not an error.
	if f := co.Complete("w1", g1.Lease, allCaptured(g1)); f.Type != FrameAck || co.Ledger().DuplicateCompletions != 1 {
		t.Fatalf("re-completion = %+v, ledger %+v", f, co.Ledger())
	}

	g2 := co.Grant("w1")
	g3 := co.Grant("w2")
	if g2.First != 8 || g3.First != 16 {
		t.Fatalf("grants out of order: %d, %d", g2.First, g3.First)
	}
	co.Complete("w1", g2.Lease, allCaptured(g2))
	co.Complete("w2", g3.Lease, allCaptured(g3))

	select {
	case <-co.Done():
	default:
		t.Fatal("coordinator not drained after all completions")
	}
	if f := co.Grant("w1"); f.Type != FrameDrained {
		t.Fatalf("post-drain grant = %+v", f)
	}
	l := co.Ledger()
	if l.Captures != 20 || l.Captures+l.DeadLettered+l.Dropped != l.Submitted {
		t.Fatalf("ledger = %+v", l)
	}
	if l.DuplicateCompletions != 1 {
		t.Fatalf("duplicate completions = %d", l.DuplicateCompletions)
	}
}

func TestCoordinatorPolitenessGuard(t *testing.T) {
	// Two one-item chunks over the SAME domain: the second must not be
	// granted while the first is leased.
	items := testItems(2, 1)
	co, err := NewCoordinator(items, CoordinatorConfig{LeaseSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	g1 := co.Grant("w1")
	if g1.Type != FrameLeaseGrant {
		t.Fatalf("grant = %+v", g1)
	}
	if f := co.Grant("w2"); f.Type != FrameIdle {
		t.Fatalf("conflicting grant = %+v, want idle (domain held by w1)", f)
	}
	co.Complete("w1", g1.Lease, allCaptured(g1))
	if f := co.Grant("w2"); f.Type != FrameLeaseGrant || f.First != 1 {
		t.Fatalf("post-release grant = %+v", f)
	}
}

func TestCoordinatorExpiryReassignsThenDeadLetters(t *testing.T) {
	clock := newFakeClock()
	dead := resilience.NewMemDeadLetter()
	var skips []skipRange
	var skipMu sync.Mutex
	co, err := NewCoordinator(testItems(4, 4), CoordinatorConfig{
		LeaseSize:        4,
		LeaseTTL:         time.Second,
		LeaseRetryBudget: 2,
		Now:              clock.Now,
		DeadLetter:       dead,
		Skip: func(at, n int64) error {
			skipMu.Lock()
			skips = append(skips, skipRange{at, n})
			skipMu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 and 2: granted, never heartbeat, expired.
	for attempt := 1; attempt <= 2; attempt++ {
		g := co.Grant("w1")
		if g.Type != FrameLeaseGrant {
			t.Fatalf("attempt %d: grant = %+v", attempt, g)
		}
		clock.Advance(2 * time.Second)
		co.Sweep()
		if l := co.Ledger(); l.Reassigned != int64(attempt) {
			t.Fatalf("attempt %d: reassigned = %d", attempt, l.Reassigned)
		}
		// The worker's late completion is a duplicate, not a crash.
		if f := co.Complete("w1", g.Lease, allCaptured(g)); f.Type != FrameAck || co.Ledger().DuplicateCompletions != int64(attempt) {
			t.Fatalf("late completion = %+v, ledger %+v", f, co.Ledger())
		}
	}
	// Attempt 3 exceeds the budget on expiry: chunk dies.
	g := co.Grant("w1")
	clock.Advance(2 * time.Second)
	co.Sweep()
	_ = g
	l := co.Ledger()
	if l.DeadLettered != 4 || l.Captures != 0 {
		t.Fatalf("ledger after death = %+v", l)
	}
	if l.Captures+l.DeadLettered+l.Dropped != l.Submitted {
		t.Fatalf("ledger does not balance: %+v", l)
	}
	by := dead.ByReason()
	if by[ReasonLeaseExpired] != 4 {
		t.Fatalf("dead letters by reason = %v", by)
	}
	skipMu.Lock()
	defer skipMu.Unlock()
	if len(skips) != 1 || skips[0] != (skipRange{0, 4}) {
		t.Fatalf("cursor skips = %v, want [{0 4}]", skips)
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("coordinator not drained after chunk death")
	}
}

func TestCoordinatorShedsAtMaxLeases(t *testing.T) {
	co, err := NewCoordinator(testItems(30, 30), CoordinatorConfig{
		LeaseSize:       1,
		MaxActiveLeases: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	co.Grant("w1")
	co.Grant("w2")
	if f := co.Grant("w3"); f.Type != FrameIdle {
		t.Fatalf("grant past ceiling = %+v, want idle", f)
	}
	if l := co.Ledger(); l.Shed != 1 {
		t.Fatalf("shed = %d", l.Shed)
	}
}

func TestCoordinatorAbortBalancesLedger(t *testing.T) {
	dead := resilience.NewMemDeadLetter()
	co, err := NewCoordinator(testItems(10, 10), CoordinatorConfig{
		LeaseSize:  3,
		DeadLetter: dead,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := co.Grant("w1")
	co.Complete("w1", g.Lease, allCaptured(g))
	co.Grant("w1") // leased but never completed
	co.Abort()
	l := co.Ledger()
	if l.Captures != 3 || l.Dropped != 7 {
		t.Fatalf("ledger after abort = %+v", l)
	}
	if l.Captures+l.DeadLettered+l.Dropped != l.Submitted {
		t.Fatalf("ledger does not balance: %+v", l)
	}
	if dead.ByReason()[resilience.ReasonShutdownDrop] != 7 {
		t.Fatalf("dead letters = %v", dead.ByReason())
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("not drained after abort")
	}
}

// TestCoordinatorRestartResume is the checkpoint half of the headline
// invariant: a restarted coordinator accounts for completed chunks
// without re-issuing them, and the ledger balances across the restart.
func TestCoordinatorRestartResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	items := testItems(20, 20)
	cfg := CoordinatorConfig{LeaseSize: 4, CheckpointPath: ckpt}

	co1, err := NewCoordinator(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g1 := co1.Grant("w1") // [0,4): completed
	co1.Complete("w1", g1.Lease, allCaptured(g1))
	g2 := co1.Grant("w1") // [4,8): one dead-letter result
	rs := allCaptured(g2)
	rs[1] = Result{Seq: g2.First + 1, Attempts: 3, Reason: resilience.ReasonBudgetExhausted, Err: "x"}
	co1.Complete("w1", g2.Lease, rs)
	co1.Grant("w1") // [8,12): leased, never completed — lost with the crash
	if err := co1.Close(); err != nil {
		t.Fatal(err)
	}

	co2, err := NewCoordinator(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	l := co2.Ledger()
	if l.Captures != 7 || l.DeadLettered != 1 {
		t.Fatalf("restored ledger = %+v, want 7 captures / 1 dead", l)
	}
	st := co2.Status()
	if st.DoneN != 2 || st.Pending != 3 {
		t.Fatalf("restored status = %+v, want 2 done / 3 pending", st)
	}
	// The resumed coordinator must grant only unfinished ranges.
	seen := map[int64]bool{}
	for {
		g := co2.Grant("w")
		if g.Type == FrameDrained {
			break
		}
		if g.Type != FrameLeaseGrant {
			t.Fatalf("grant = %+v", g)
		}
		if g.First < 8 {
			t.Fatalf("re-issued completed range [%d,%d)", g.First, g.First+int64(g.N))
		}
		if seen[g.First] {
			t.Fatalf("range %d granted twice", g.First)
		}
		seen[g.First] = true
		co2.Complete("w", g.Lease, allCaptured(g))
	}
	l = co2.Ledger()
	if l.Captures != 19 || l.DeadLettered != 1 || l.Dropped != 0 {
		t.Fatalf("final ledger = %+v", l)
	}
	if l.Captures+l.DeadLettered+l.Dropped != l.Submitted {
		t.Fatalf("ledger does not balance across restart: %+v", l)
	}
}

// TestCheckpointRejectsMismatchedWorkList: a log replayed against a
// different window fails loudly.
func TestCheckpointRejectsMismatchedWorkList(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	cfg := CoordinatorConfig{LeaseSize: 4, CheckpointPath: ckpt}
	co1, err := NewCoordinator(testItems(20, 20), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := co1.Grant("w")
	co1.Complete("w", g.Lease, allCaptured(g))
	co1.Close()

	if _, err := NewCoordinator(testItems(10, 10), CoordinatorConfig{LeaseSize: 2, CheckpointPath: ckpt}); err == nil {
		t.Fatal("mismatched work list accepted")
	}
}
