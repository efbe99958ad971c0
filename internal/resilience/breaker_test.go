package resilience

import (
	"testing"
	"time"
)

// fakeClock is an adjustable breaker clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Minute, Now: clk.now})

	// Closed: everything passes; failures below threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.Failure()
	}
	if b.Open() {
		t.Fatal("breaker open below threshold")
	}
	// Success resets the streak.
	b.Success()
	b.Failure()
	b.Failure()
	if b.Open() {
		t.Fatal("streak did not reset on success")
	}
	// Third consecutive failure opens it.
	b.Failure()
	if !b.Open() {
		t.Fatal("breaker not open at threshold")
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request")
	}

	// After the cooldown exactly one half-open probe is admitted.
	clk.advance(time.Minute)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if b.Allow() {
		t.Fatal("second concurrent half-open probe admitted")
	}
	// Failed probe re-opens with a fresh cooldown.
	b.Failure()
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a request")
	}
	clk.advance(time.Minute)
	if !b.Allow() {
		t.Fatal("second probe rejected after fresh cooldown")
	}
	// Successful probe closes it fully.
	b.Success()
	if !b.Allow() || !b.Allow() {
		t.Fatal("closed breaker rejecting after successful probe")
	}
}

func TestBreakerSet(t *testing.T) {
	if s := NewBreakerSet(BreakerConfig{}); s != nil {
		t.Fatal("zero threshold must return a nil (disabled) set")
	}
	var disabled *BreakerSet
	if !disabled.Allow("a.com") {
		t.Fatal("nil set must allow")
	}
	disabled.Success("a.com") // must not panic
	disabled.Failure("a.com")
	if disabled.OpenCount() != 0 {
		t.Fatal("nil set open count")
	}

	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	s := NewBreakerSet(BreakerConfig{Threshold: 2, Cooldown: time.Minute, Now: clk.now})
	s.Failure("a.com")
	s.Failure("a.com")
	s.Failure("b.com")
	if s.Allow("a.com") {
		t.Fatal("a.com should be open")
	}
	if !s.Allow("b.com") {
		t.Fatal("b.com should still be closed")
	}
	if n := s.OpenCount(); n != 1 {
		t.Fatalf("open count = %d", n)
	}
}
