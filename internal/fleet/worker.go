package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/browser"
	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/crawler"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/socialfeed"
	"repro/internal/webworld"
)

// PushFunc delivers a completed chunk's captures to the store at its
// canonical range [at, at+n). trace is the worker's push-span context
// in traceparent form (empty for untraced runs); HTTP pushers forward
// it as the Traceparent header so the store's ingest span joins the
// lease's trace. capstore.Client.RecordBatchAtTrace satisfies it over
// HTTP; tests push straight into an in-process Ingester.
type PushFunc func(trace string, at, n int64, caps []*capture.Capture) error

// IngestPush adapts a capstore client to PushFunc.
func IngestPush(cl *capstore.Client) PushFunc {
	return func(trace string, at, n int64, caps []*capture.Capture) error {
		_, err := cl.RecordBatchAtTrace(trace, at, n, caps)
		return err
	}
}

// WorkerConfig parameterizes one fleet worker.
type WorkerConfig struct {
	// ID names the worker in the protocol (required).
	ID string
	// Coordinator speaks the wire protocol (required).
	Coordinator *Client
	// Push delivers captures (required).
	Push PushFunc
	// World is the synthetic substrate the worker crawls. cmd/crawl
	// rebuilds it from the coordinator's RunConfig seeds.
	World *webworld.World
	// Run carries the fleet-wide crawl parameters (normally fetched
	// from the coordinator's /config).
	Run RunConfig
	// Visitor overrides the load substrate (chaos fault injection);
	// nil means World.
	Visitor browser.Visitor
	// Patience bounds how long the worker tolerates consecutive
	// transport failures against the coordinator or the store before
	// giving up (0 means a minute). It must cover a coordinator
	// crash+restart; without a bound, a worker that misses the drained
	// frame because the coordinator exited would retry forever.
	Patience time.Duration
	// Tracer records the worker's spans (the per-lease work span, its
	// visit children, and the push span), adopted into the grant's
	// trace context; nil disables tracing. Configure it with a role
	// Service ("worker"), never a per-worker name — exports must stay
	// byte-identical across worker counts.
	Tracer *obs.Tracer
}

// ErrWorkerCrashed is returned by Worker.Run when the test crash hook
// fires — the in-process stand-in for a SIGKILLed worker node.
var ErrWorkerCrashed = errors.New("fleet: worker crashed (injected)")

// Worker pulls leases from a coordinator, crawls them through the same
// StreamPlatform path as a single-process run, pushes the captures to
// the store at their canonical positions, and reports completions.
type Worker struct {
	id       string
	coord    *Client
	push     PushFunc
	world    *webworld.World
	run      RunConfig
	visitor  browser.Visitor
	patience time.Duration
	tracer   *obs.Tracer

	// crash, when set by in-package tests, is consulted at named stages
	// ("granted" before processing, "processed" before the push,
	// "pushed" before the completion); returning true abandons the
	// worker abruptly, mid-lease, like a killed process.
	crash func(stage string, first int64) bool
}

// NewWorker wires a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" || cfg.Coordinator == nil || cfg.Push == nil || cfg.World == nil {
		return nil, errors.New("fleet: worker needs ID, Coordinator, Push, and World")
	}
	patience := cfg.Patience
	if patience <= 0 {
		patience = time.Minute
	}
	return &Worker{
		id:       cfg.ID,
		coord:    cfg.Coordinator,
		push:     cfg.Push,
		world:    cfg.World,
		run:      cfg.Run,
		visitor:  cfg.Visitor,
		patience: patience,
		tracer:   cfg.Tracer,
	}, nil
}

// Run pulls and executes leases until the coordinator reports the
// window drained, ctx is cancelled, or the crash hook fires.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		f, err := w.leaseWithRetry(ctx)
		if err != nil {
			return err
		}
		switch f.Type {
		case FrameDrained:
			return nil
		case FrameIdle:
			if err := sleepCtx(ctx, time.Duration(f.RetryMS)*time.Millisecond); err != nil {
				return err
			}
		case FrameLeaseGrant:
			if err := w.runLease(ctx, f); err != nil {
				return err
			}
		default:
			return fmt.Errorf("fleet: unexpected %s frame from /lease", f.Type)
		}
	}
}

// outage tracks a run of consecutive transport failures against one
// peer and reports when it has outlasted the worker's patience. A
// success (or a live-server response such as 429 shedding) resets it.
type outage struct {
	limit time.Duration
	since time.Time
}

func (o *outage) fail() bool {
	if o.since.IsZero() {
		o.since = time.Now()
	}
	return time.Since(o.since) > o.limit
}

func (o *outage) reset() { o.since = time.Time{} }

// leaseWithRetry asks for work, retrying transport failures and 429
// shedding with a flat delay — the coordinator may simply be saturated
// or restarting. An outage longer than the worker's patience gives up:
// a drained coordinator exits without telling idle-retrying workers.
func (w *Worker) leaseWithRetry(ctx context.Context) (*Frame, error) {
	down := outage{limit: w.patience}
	for {
		f, err := w.coord.Lease(w.id, 0)
		if err == nil {
			return f, nil
		}
		if down.fail() {
			return nil, fmt.Errorf("fleet: coordinator unreachable for %v: %w", w.patience, err)
		}
		if serr := sleepCtx(ctx, 100*time.Millisecond); serr != nil {
			return nil, serr
		}
	}
}

// runLease executes one granted chunk end to end: heartbeats keep the
// lease alive while the chunk crawls; the captures are pushed at the
// chunk's canonical range; the completion closes the loop. Losing the
// lease (heartbeat rejected) abandons the chunk without pushing — the
// coordinator has already re-granted it, and the replacement worker's
// push is byte-identical anyway.
func (w *Worker) runLease(ctx context.Context, grant *Frame) error {
	if w.crashed("granted", grant.First) {
		return ErrWorkerCrashed
	}
	// Adopt the grant's trace context: the work span (and through it
	// every visit and the push) becomes a child of fleetd's lease span.
	// A malformed context is treated as absent — tracing must never
	// fail a lease.
	pctx, _ := obs.ParseTraceparent(grant.Trace)
	var work *obs.Span
	if w.tracer != nil {
		work = w.tracer.StartRemote("work", pctx,
			obs.A("first", fmt.Sprintf("%d", grant.First)))
		defer work.End()
	}
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(leaseCtx, grant, cancel)
	}()
	defer func() { cancel(); <-hbDone }()

	results, caps := w.processChunk(leaseCtx, grant, work.Context())
	if leaseCtx.Err() != nil && ctx.Err() == nil {
		// Lease lost mid-crawl: abandon silently.
		work.Attr("outcome", "lease-lost")
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if w.crashed("processed", grant.First) {
		return ErrWorkerCrashed
	}
	if err := w.pushWithRetry(ctx, grant, caps, work); err != nil {
		return err
	}
	if w.crashed("pushed", grant.First) {
		return ErrWorkerCrashed
	}
	work.Attr("outcome", "completed")
	down := outage{limit: w.patience}
	for {
		f, err := w.coord.Complete(w.id, grant.Lease, results, grant.Trace)
		if err == nil {
			if f.Type == FrameError {
				return fmt.Errorf("fleet: completion rejected: %s", f.Err)
			}
			return nil // ack — Dup is fine, the chunk is accounted
		}
		// Giving up on a completion is safe: the lease expires, the
		// chunk is reassigned, and the replacement delivery dedups.
		if down.fail() {
			return fmt.Errorf("fleet: coordinator unreachable for %v: %w", w.patience, err)
		}
		if serr := sleepCtx(ctx, 100*time.Millisecond); serr != nil {
			return serr
		}
	}
}

func (w *Worker) crashed(stage string, first int64) bool {
	return w.crash != nil && w.crash(stage, first)
}

// heartbeat extends the lease at TTL/3 until the lease context ends; a
// rejected heartbeat (unknown lease — it expired and was reassigned)
// cancels the lease context so the crawl is abandoned.
func (w *Worker) heartbeat(ctx context.Context, grant *Frame, cancel context.CancelFunc) {
	interval := time.Duration(grant.TTLMS) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			f, err := w.coord.Heartbeat(w.id, grant.Lease, grant.Trace)
			if err != nil {
				continue // transient transport failure; the TTL absorbs a few
			}
			if f.Type == FrameError {
				cancel()
				return
			}
		}
	}
}

// CrawlItems drives items, in order, through a fresh single-worker
// StreamPlatform over world and returns it once every item has reached
// its terminal — the exact retry/politeness/vantage path of the
// single-process pipeline, and the one definition of it: a worker runs
// it per chunk, and the byte-identity references (the fleet tests'
// baseline, cmd/smoke's) run it per window, so the reference cannot
// drift from what a worker does. Every byte-affecting field of the
// pipeline is derived from run; wiring carries only what is the
// caller's own (Visitor, Tracer, TraceContext). Workers=1 makes the
// sink receive captures in item order. Breakers follow
// RunConfig.BreakerThreshold (0 disables; their state is cross-share
// order-dependent, so determinism runs keep them off). Backoff timing
// is byte-neutral. A cancelled ctx stops submitting; what was
// submitted still drains.
func CrawlItems(ctx context.Context, world *webworld.World, run RunConfig, wiring crawler.StreamConfig, items []WorkItem, sink capture.Sink) *crawler.StreamPlatform {
	wiring.Seed = run.CrawlSeed
	wiring.Workers = 1
	wiring.QueueDepth = len(items)
	wiring.PerDomainDelay = time.Duration(run.PolitenessMS) * time.Millisecond
	wiring.Retry = resilience.RetryPolicy{
		MaxAttempts: run.RetryAttempts,
		BaseDelay:   time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
	}
	wiring.Breaker = resilience.BreakerConfig{Threshold: run.BreakerThreshold}
	p := crawler.NewStreamPlatform(world, wiring)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(context.Background(), sink)
	}()
	for _, it := range items {
		if err := p.Submit(ctx, it.Day, crawlShare(it)); err != nil {
			break // cancelled: the lease is lost, outcomes are moot
		}
	}
	p.Close()
	<-done
	return p
}

// processChunk crawls the chunk through CrawlItems; the captures slice
// is already in canonical order for the ordered push.
func (w *Worker) processChunk(ctx context.Context, grant *Frame, tctx obs.SpanContext) ([]Result, []*capture.Capture) {
	sink := capture.NewMemStore()
	p := CrawlItems(ctx, w.world, w.run, crawler.StreamConfig{
		Tracer:       w.tracer,
		TraceContext: tctx,
		Visitor:      w.visitor,
	}, grant.Items, sink)

	// Map outcomes back to sequence numbers. Every submitted item
	// reached exactly one terminal: a recorded capture or a dead-letter
	// entry; items never submitted (cancellation) stay unaccounted,
	// which is fine — a lost lease's results are discarded.
	seqOf := make(map[string]int64, grant.N)
	for _, it := range grant.Items {
		seqOf[it.URL+"\x1f"+it.Day.String()] = it.Seq
	}
	caps := sink.All()
	results := make([]Result, 0, grant.N)
	for _, c := range caps {
		results = append(results, Result{
			Seq:      seqOf[c.SeedURL+"\x1f"+c.Day.String()],
			Captured: true,
		})
	}
	for _, e := range p.DeadLetters().Entries() {
		results = append(results, Result{
			Seq:      seqOf[e.URL+"\x1f"+e.Day.String()],
			Attempts: e.Attempts,
			Reason:   e.Reason,
			Err:      e.LastErr,
		})
	}
	sortResults(results)
	return results, caps
}

// crawlShare rebuilds the socialfeed.Share a work item was cut from.
// Platform and Hour do not influence the crawl, so the wire protocol
// does not carry them.
func crawlShare(it WorkItem) socialfeed.Share {
	return socialfeed.Share{URL: it.URL, Domain: it.Domain}
}

func sortResults(rs []Result) {
	// Insertion sort: chunks are small and nearly ordered (captures are
	// in share order; dead letters interleave).
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Seq < rs[j-1].Seq; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// pushWithRetry delivers the chunk's captures, absorbing reorder-buffer
// shedding (the store is waiting for an earlier range) with retries.
// Shedding is a live server asking for backoff and never counts toward
// the patience budget; transport failures do.
func (w *Worker) pushWithRetry(ctx context.Context, grant *Frame, caps []*capture.Capture, work *obs.Span) error {
	var push *obs.Span
	if work != nil {
		push = work.Start("push", obs.A("first", fmt.Sprintf("%d", grant.First)))
		defer push.End()
	}
	down := outage{limit: w.patience}
	for {
		// No per-retry attrs: shed/retry counts vary across worker
		// counts and would break byte-identical trace exports.
		err := w.push(push.Context().Traceparent(), grant.First, int64(grant.N), caps)
		if err == nil {
			return nil
		}
		delay := 100 * time.Millisecond
		if errors.Is(err, capstore.ErrIngestShed) {
			delay = 250 * time.Millisecond
			down.reset()
		} else if down.fail() {
			return fmt.Errorf("fleet: store unreachable for %v: %w", w.patience, err)
		}
		if serr := sleepCtx(ctx, delay); serr != nil {
			return serr
		}
	}
}

// sleepCtx waits d, cut short by cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
