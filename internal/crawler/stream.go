// Package crawler implements the Netograph-style measurement platform
// (Figure 3): StreamPlatform, a capture queue seeded from the
// social-media feed that feeds pools of instrumented browsers in US and
// EU data centers (each URL assigned randomly, 50% crawled from within
// the EU), and the toplist-based campaign infrastructure used for
// Tables 1 and A.3.
package crawler

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"repro/internal/browser"
	"repro/internal/capture"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

// StreamPlatform is the social-media pipeline of Figure 3 and the one
// social-crawl engine: URLs flow from the social-media ingestor
// through a bounded capture queue into browser worker pools, with
// per-domain politeness limits and graceful cancellation — "URLs are
// visited once within a couple of minutes after submission".
// core.Study's in-process crawl, cmd/crawl and every fleet worker run
// it. With one worker the sink receives captures in submission order;
// with more, in completion order, which order-independent sinks such as
// analysis.PresenceFold do not observe.
//
// The deployment path is hardened for the hostile substrate the paper
// describes (~9% of toplist loads failed, Section 3.5): transient
// failures are retried under StreamConfig.Retry with capped
// exponential backoff and deterministic jitter, per-registrable-domain
// circuit breakers stop hammering struggling sites, and every share
// that cannot be captured is accounted for — routed to the dead-letter
// sink with a reason, never silently dropped. Stats() exposes the full
// per-outcome ledger; Captures() + DeadLettered + Dropped always
// equals the number of accepted submissions.
type StreamPlatform struct {
	cfg     StreamConfig
	world   *webworld.World
	visitor browser.Visitor
	src     *rng.Source
	vsrc    *rng.Source

	// queue is the bounded capture queue; ingestion blocks when the
	// crawlers fall behind (backpressure instead of unbounded memory).
	queue chan queued

	breakers *resilience.BreakerSet
	dead     resilience.DeadLetterSink
	memDead  *resilience.MemDeadLetter // when dead is the default sink

	mu       sync.Mutex
	cond     *sync.Cond // signals inflight-submit drain during shutdown
	lastHit  map[string]time.Time
	stats    StreamStats
	captures int64
	inflight int  // Submit calls between admission and enqueue/abort
	stopped  bool // Run finished; no further Submits are accepted
}

type queued struct {
	share socialfeed.Share
	day   simtime.Day
}

// StreamConfig parameterizes the streaming pipeline.
type StreamConfig struct {
	Seed uint64
	// Workers is the number of concurrent browser workers.
	Workers int
	// QueueDepth bounds the capture queue (default 1024).
	QueueDepth int
	// PerDomainDelay is the politeness interval between captures of
	// the same registrable domain; zero means no wait. The paper's
	// platform enforces its one-hour rule at the feed level, this
	// guards the crawler itself; deployments set it explicitly
	// (fleetd -politeness).
	PerDomainDelay time.Duration
	// Retry is the transient-failure retry policy. The zero value
	// disables retrying: every capture, failed or not, is recorded on
	// its first attempt (the historical behaviour).
	Retry resilience.RetryPolicy
	// Breaker configures per-registrable-domain circuit breakers; a
	// zero Threshold disables them.
	Breaker resilience.BreakerConfig
	// Visitor overrides the substrate the workers' browsers load from
	// (chaos fault injection); nil means the world itself.
	Visitor browser.Visitor
	// DeadLetter receives shares that exhaust their chances; nil
	// installs an in-memory sink readable via DeadLetters().
	DeadLetter resilience.DeadLetterSink
	// Metrics receives per-visit telemetry (latency histogram, outcome
	// and dead-letter counters); nil is the no-op recorder. See also
	// StreamPlatform.RegisterMetrics for the live-state gauges.
	Metrics *StreamMetrics
	// Tracer records visit/retry/store spans for each processed share;
	// nil disables tracing.
	Tracer *obs.Tracer
	// TraceContext, when valid, makes every visit span a child of this
	// remote parent — the fleet worker passes its lease-scoped span so
	// visits stitch into the fleetd-rooted trace.
	TraceContext obs.SpanContext
	// Now is the clock behind politeness scheduling and visit timing,
	// injectable for deterministic tests — the same pattern as
	// resilience.BreakerConfig.Now (default time.Now).
	Now func() time.Time
}

// StreamStats is the pipeline's per-outcome ledger. Succeeded +
// FailedRecorded + DeadLettered + Dropped == Submitted once Run has
// returned; Cancelled and BreakerOpen break down DeadLettered by
// cause.
type StreamStats struct {
	// Submitted counts accepted Submit calls.
	Submitted int64
	// Succeeded counts recorded captures that produced a usable page.
	Succeeded int64
	// FailedRecorded counts recorded captures with terminal failures
	// (the platform records unsuccessful captures too).
	FailedRecorded int64
	// Retries counts retry loads beyond each share's first attempt.
	Retries int64
	// DeadLettered counts shares routed to the dead-letter sink.
	DeadLettered int64
	// Dropped counts shares still queued when Run returned (submitted
	// during shutdown); they are also forwarded to the dead-letter
	// sink with ReasonShutdownDrop but counted separately.
	Dropped int64
	// Cancelled counts dead-letters caused by cancellation landing
	// mid-politeness-wait or mid-backoff.
	Cancelled int64
	// BreakerOpen counts dead-letters caused by an open domain
	// breaker.
	BreakerOpen int64
	// BreakersOpenNow is the number of currently-open breakers.
	BreakersOpenNow int
}

// ErrStopped is returned by Submit after Run has finished.
var ErrStopped = errors.New("crawler: stream platform stopped")

// NewStreamPlatform wires the streaming pipeline.
func NewStreamPlatform(w *webworld.World, cfg StreamConfig) *StreamPlatform {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	p := &StreamPlatform{
		cfg:      cfg,
		world:    w,
		visitor:  cfg.Visitor,
		src:      rng.New(cfg.Seed).Derive("stream-crawler"),
		vsrc:     VantageSource(cfg.Seed),
		queue:    make(chan queued, cfg.QueueDepth),
		breakers: resilience.NewBreakerSet(cfg.Breaker),
		dead:     cfg.DeadLetter,
		lastHit:  make(map[string]time.Time),
	}
	if p.visitor == nil {
		p.visitor = w
	}
	if p.dead == nil {
		p.memDead = resilience.NewMemDeadLetter()
		p.dead = p.memDead
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Submit enqueues one share for capture, blocking when the queue is
// full (backpressure) and failing fast when ctx is cancelled or the
// pipeline has stopped.
func (p *StreamPlatform) Submit(ctx context.Context, day simtime.Day, s socialfeed.Share) error {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrStopped
	}
	p.inflight++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inflight--
		p.cond.Broadcast()
		p.mu.Unlock()
	}()
	select {
	case p.queue <- queued{share: s, day: day}:
		p.mu.Lock()
		p.stats.Submitted++
		p.mu.Unlock()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Captures returns the number of captures recorded so far.
func (p *StreamPlatform) Captures() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.captures
}

// Stats snapshots the outcome ledger.
func (p *StreamPlatform) Stats() StreamStats {
	p.mu.Lock()
	st := p.stats
	p.mu.Unlock()
	st.BreakersOpenNow = p.breakers.OpenCount()
	return st
}

// DeadLetters returns the default in-memory dead-letter sink, or nil
// when StreamConfig.DeadLetter replaced it.
func (p *StreamPlatform) DeadLetters() *resilience.MemDeadLetter { return p.memDead }

// politenessReserve claims the domain's next capture slot under the
// configured clock and returns how long the caller must wait for it.
// Reserving before waiting makes concurrent workers honouring the same
// domain serialize correctly, and keeping the computation pure against
// StreamConfig.Now makes the schedule testable without sleeping.
func (p *StreamPlatform) politenessReserve(domain string) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.cfg.Now()
	next := p.lastHit[domain].Add(p.cfg.PerDomainDelay)
	if next.Before(now) {
		next = now
	}
	p.lastHit[domain] = next
	return next.Sub(now)
}

// politenessWait blocks until the domain may be hit again, respecting
// cancellation.
func (p *StreamPlatform) politenessWait(ctx context.Context, domain string) error {
	if p.cfg.PerDomainDelay <= 0 {
		return nil
	}
	d := p.politenessReserve(domain)
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sleepCtx waits d, cut short by cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// record sends a capture to the sink and books the outcome; the store
// span (a child of the visit span) brackets the sink write.
func (p *StreamPlatform) record(sink capture.Sink, c *capture.Capture, ok bool, visit *obs.Span) {
	if visit != nil {
		store := visit.Start("store")
		sink.Record(c)
		store.End()
	} else {
		sink.Record(c)
	}
	p.mu.Lock()
	p.captures++
	if ok {
		p.stats.Succeeded++
	} else {
		p.stats.FailedRecorded++
	}
	p.mu.Unlock()
	p.cfg.Metrics.recordVisit(ok)
}

// deadLetter books a share that leaves the pipeline without a capture.
func (p *StreamPlatform) deadLetter(q queued, attempts int, reason, lastErr string) {
	p.dead.Add(resilience.DeadEntry{
		URL:      q.share.URL,
		Domain:   q.share.Domain,
		Day:      q.day,
		Attempts: attempts,
		Reason:   reason,
		LastErr:  lastErr,
	})
	p.mu.Lock()
	if reason == resilience.ReasonShutdownDrop {
		p.stats.Dropped++
	} else {
		p.stats.DeadLettered++
		switch reason {
		case resilience.ReasonCancelled:
			p.stats.Cancelled++
		case resilience.ReasonBreakerOpen:
			p.stats.BreakerOpen++
		}
	}
	p.mu.Unlock()
	p.cfg.Metrics.deadLetter(reason)
}

// process runs one share to a terminal outcome: a recorded capture
// (possibly after retries) or a dead-letter entry. Exactly one of the
// two happens per dequeued share.
func (p *StreamPlatform) process(ctx context.Context, b *browser.Browser, sink capture.Sink, q queued) {
	domain := q.share.Domain
	var visit *obs.Span
	if p.cfg.Tracer != nil {
		visit = p.cfg.Tracer.StartRemote("visit", p.cfg.TraceContext,
			obs.A("url", q.share.URL), obs.A("day", q.day.String()))
		defer visit.End()
	}
	if m := p.cfg.Metrics; m != nil {
		start := p.cfg.Now()
		defer func() { m.VisitSeconds.Observe(p.cfg.Now().Sub(start).Seconds()) }()
	}
	if !p.breakers.Allow(domain) {
		visit.Attr("outcome", "dead-letter")
		p.deadLetter(q, 0, resilience.ReasonBreakerOpen, "")
		return
	}
	maxAttempts := p.cfg.Retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var lastErr string
	for attempt := 1; ; attempt++ {
		if err := p.politenessWait(ctx, domain); err != nil {
			// Cancelled mid-wait: account for the share instead of
			// losing it.
			visit.Attr("outcome", "dead-letter")
			p.deadLetter(q, attempt-1, resilience.ReasonCancelled, lastErr)
			return
		}
		vantage := PickVantage(p.vsrc, q.share.URL, q.day)
		var retry *obs.Span
		if visit != nil && attempt > 1 {
			retry = visit.Start("retry", obs.A("n", strconv.Itoa(attempt)))
		}
		c := b.Load(q.share.URL, q.day, vantage)
		retry.End()
		switch resilience.ClassifyCapture(c) {
		case resilience.Success:
			p.breakers.Success(domain)
			visit.Attr("outcome", "success")
			p.record(sink, c, true, visit)
			return
		case resilience.Terminal:
			p.breakers.Failure(domain)
			visit.Attr("outcome", "failed")
			p.record(sink, c, false, visit)
			return
		default: // Retryable
			p.breakers.Failure(domain)
			lastErr = c.Error
			if attempt >= maxAttempts {
				if maxAttempts == 1 {
					// Retries disabled: keep the record-everything
					// behaviour of the batch pipeline.
					visit.Attr("outcome", "failed")
					p.record(sink, c, false, visit)
				} else {
					visit.Attr("outcome", "dead-letter")
					p.deadLetter(q, attempt, resilience.ReasonBudgetExhausted, lastErr)
				}
				return
			}
			if !p.breakers.Allow(domain) {
				// Our own failures opened the domain's breaker.
				visit.Attr("outcome", "dead-letter")
				p.deadLetter(q, attempt, resilience.ReasonBreakerOpen, lastErr)
				return
			}
			p.mu.Lock()
			p.stats.Retries++
			p.mu.Unlock()
			p.cfg.Metrics.retry()
			backoff := p.cfg.Retry.Backoff(p.src, attempt, q.share.URL, q.day.String())
			if err := sleepCtx(ctx, backoff); err != nil {
				visit.Attr("outcome", "dead-letter")
				p.deadLetter(q, attempt, resilience.ReasonCancelled, lastErr)
				return
			}
		}
	}
}

// Run starts the worker pool and processes the queue until ctx is
// cancelled AND the queue has been drained of everything submitted
// before cancellation, or until Close is called after the final
// Submit. It blocks until all workers exit; any share still queued at
// that point (a Submit racing shutdown) is counted as Dropped and
// forwarded to the dead-letter sink rather than lost.
func (p *StreamPlatform) Run(ctx context.Context, sink capture.Sink) {
	var wg sync.WaitGroup
	for i := 0; i < p.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := browser.New(p.visitor, browser.Options{})
			for {
				var q queued
				var ok bool
				select {
				case q, ok = <-p.queue:
					if !ok {
						return
					}
				case <-ctx.Done():
					// Drain what is already queued, then stop.
					select {
					case q, ok = <-p.queue:
						if !ok {
							return
						}
					default:
						return
					}
				}
				p.process(ctx, b, sink, q)
			}
		}()
	}
	wg.Wait()

	// Shutdown sweep: refuse new Submits, wait out the ones already
	// admitted, then account for anything they managed to enqueue.
	// Draining interleaves with the wait so a Submit blocked on a full
	// queue can land its share (which we dead-letter) and return.
	p.mu.Lock()
	p.stopped = true
	for p.inflight > 0 {
		p.mu.Unlock()
		p.drainQueue()
		p.mu.Lock()
		if p.inflight == 0 {
			break
		}
		p.cond.Wait()
	}
	p.mu.Unlock()
	p.drainQueue()
}

// drainQueue empties whatever is queued right now, dead-lettering each
// share as a shutdown drop.
func (p *StreamPlatform) drainQueue() {
	for {
		select {
		case q, ok := <-p.queue:
			if !ok {
				return
			}
			p.deadLetter(q, 0, resilience.ReasonShutdownDrop, "")
		default:
			return
		}
	}
}

// Close signals that no further Submit calls will happen; Run returns
// once the remaining queue drains.
func (p *StreamPlatform) Close() { close(p.queue) }
