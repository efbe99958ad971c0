package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/simtime"
	"repro/internal/socialfeed"
)

// ReasonLeaseExpired marks shares dead-lettered by the coordinator
// because every lease over their chunk expired past the retry budget —
// the fleet-level analogue of resilience.ReasonBudgetExhausted.
const ReasonLeaseExpired = "lease-expired"

// chunk states. A chunk is the lease unit: a contiguous run of the
// feed-ordered work list. Contiguity is what lets a completed chunk be
// committed to the store as one ordered batch at its canonical
// position.
type chunkState int

const (
	chunkPending chunkState = iota
	chunkActive
	chunkDone
	chunkDead
)

type chunk struct {
	idx      int
	first    int64
	items    []WorkItem
	state    chunkState
	attempts int // leases granted over this chunk so far
	lease    int64
	worker   string
	deadline time.Time
	// domains is the chunk's registrable-domain set, reserved while
	// the chunk is leased so no two workers hit one domain at once.
	domains map[string]struct{}
}

func (c *chunk) n() int { return len(c.items) }

// Ledger is the coordinator's exactly-once account of the window.
// Captures + DeadLettered + Dropped == Submitted holds at drain and
// across coordinator restarts.
type Ledger struct {
	// Submitted is the window's total work items.
	Submitted int64 `json:"submitted"`
	// Captures counts items whose record reached the store (successful
	// and failed-but-recorded visits alike, matching StreamPlatform's
	// Succeeded+FailedRecorded).
	Captures int64 `json:"captures"`
	// DeadLettered counts items that left the pipeline without a
	// record: worker-side budget exhaustion and coordinator-side lease
	// expiry past the retry budget.
	DeadLettered int64 `json:"dead_lettered"`
	// Dropped counts items abandoned by Abort.
	Dropped int64 `json:"dropped"`
	// Leases, Reassigned, Completions, DuplicateCompletions count the
	// protocol's control plane.
	Leases               int64 `json:"leases"`
	Reassigned           int64 `json:"reassigned"`
	Completions          int64 `json:"completions"`
	DuplicateCompletions int64 `json:"duplicate_completions"`
	// Shed counts lease requests refused at MaxActiveLeases.
	Shed int64 `json:"shed"`
}

// SkipFunc advances the ordered-ingest commit cursor over a range that
// will never be pushed (a dead chunk). capstore.Client.RecordBatchAt
// with an empty batch satisfies it.
type SkipFunc func(at, n int64) error

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// LeaseSize is the items-per-lease chunking grain (default 32).
	LeaseSize int
	// LeaseTTL is how long a lease lives without a heartbeat
	// (default 10s).
	LeaseTTL time.Duration
	// LeaseRetryBudget is how many leases a chunk may consume before
	// its shares are dead-lettered (default 3).
	LeaseRetryBudget int
	// MaxActiveLeases bounds in-flight leases; requests beyond it are
	// shed with an idle frame (default 64).
	MaxActiveLeases int
	// IdleRetry is the retry hint sent with idle frames (default 250ms).
	IdleRetry time.Duration
	// CheckpointPath, when set, persists per-chunk outcomes so a
	// restarted coordinator resumes without re-issuing completed work.
	CheckpointPath string
	// Skip, when set, is called (with retries across sweeps) for each
	// dead chunk's range so the store's ordered commit cursor does not
	// stall behind work nobody will push.
	Skip SkipFunc
	// DeadLetter receives the coordinator's lease-expired shares.
	DeadLetter resilience.DeadLetterSink
	// Now is injectable for tests (default time.Now).
	Now func() time.Time
	// Registry and Tracer attach the obs surface; both may be nil.
	Registry *obs.Registry
	Tracer   *obs.Tracer
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseSize <= 0 {
		c.LeaseSize = 32
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.LeaseRetryBudget <= 0 {
		c.LeaseRetryBudget = 3
	}
	if c.MaxActiveLeases <= 0 {
		c.MaxActiveLeases = 64
	}
	if c.IdleRetry <= 0 {
		c.IdleRetry = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Coordinator owns the window's work list and its exactly-once ledger.
// All methods are safe for concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	chunks  []*chunk
	held    map[string]int // domain → active-lease refcount
	byLease map[int64]*chunk
	nextID  int64
	ledger  Ledger
	// skips are dead ranges whose cursor advance hasn't succeeded yet.
	skips []skipRange
	// lastSeen tracks worker liveness for the fleet_workers_live gauge.
	lastSeen map[string]time.Time
	ckpt     *durable.Log
	done     chan struct{}
	doneSet  bool
	spans    map[int64]*obs.Span

	metrics *coordMetrics
}

type skipRange struct {
	at int64
	n  int64
}

// WorkFromFeed materializes the fleet's total order for a feed window:
// day by day, shares in feed order, sequence numbers dense from 0.
// This is exactly the order a single-process StreamPlatform run with
// Workers=1 records captures in, which is what the ordered ingest path
// reproduces.
func WorkFromFeed(feed *socialfeed.Feed, from, to simtime.Day) []WorkItem {
	var items []WorkItem
	for day := from; day <= to; day++ {
		for _, s := range feed.Day(day) {
			items = append(items, WorkItem{
				Seq:    int64(len(items)),
				URL:    s.URL,
				Domain: s.Domain,
				Day:    day,
			})
		}
	}
	return items
}

// NewCoordinator chunks the work list and, when cfg.CheckpointPath
// names an existing log, replays it so already-accounted chunks are not
// re-issued.
func NewCoordinator(items []WorkItem, cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:      cfg,
		held:     make(map[string]int),
		byLease:  make(map[int64]*chunk),
		lastSeen: make(map[string]time.Time),
		done:     make(chan struct{}),
		spans:    make(map[int64]*obs.Span),
	}
	for i := range items {
		if items[i].Seq != int64(i) {
			return nil, fmt.Errorf("fleet: work item %d has seq %d; the list must be dense from 0", i, items[i].Seq)
		}
	}
	for first := 0; first < len(items); first += cfg.LeaseSize {
		end := first + cfg.LeaseSize
		if end > len(items) {
			end = len(items)
		}
		c := &chunk{
			idx:     len(co.chunks),
			first:   int64(first),
			items:   items[first:end],
			domains: make(map[string]struct{}),
		}
		for _, it := range c.items {
			c.domains[it.Domain] = struct{}{}
		}
		co.chunks = append(co.chunks, c)
	}
	co.ledger.Submitted = int64(len(items))
	if cfg.CheckpointPath != "" {
		ckpt, recs, err := openCheckpoint(cfg.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if err := co.replay(recs); err != nil {
			ckpt.Close()
			return nil, err
		}
		co.ckpt = ckpt
	}
	co.registerMetrics()
	co.checkDrained()
	return co, nil
}

// replay applies a checkpoint log's records to the fresh chunk list.
func (co *Coordinator) replay(recs []ckptRecord) error {
	for _, r := range recs {
		if r.Chunk < 0 || r.Chunk >= len(co.chunks) {
			return fmt.Errorf("fleet: checkpoint names chunk %d of %d — log does not match this work list", r.Chunk, len(co.chunks))
		}
		c := co.chunks[r.Chunk]
		if r.First != c.first || r.N != c.n() {
			return fmt.Errorf("fleet: checkpoint chunk %d has range [%d,%d), work list says [%d,%d) — log does not match this work list",
				r.Chunk, r.First, r.First+int64(r.N), c.first, c.first+int64(c.n()))
		}
		if c.state != chunkPending {
			return fmt.Errorf("fleet: checkpoint accounts chunk %d twice", r.Chunk)
		}
		switch r.Kind {
		case ckptDone:
			c.state = chunkDone
			co.ledger.Completions++
		case ckptDead:
			c.state = chunkDead
			// The skip may or may not have reached the store before the
			// previous coordinator died; re-posting is idempotent.
			co.skips = append(co.skips, skipRange{at: c.first, n: int64(c.n())})
		default:
			return fmt.Errorf("fleet: checkpoint record kind %q unknown", r.Kind)
		}
		co.ledger.Captures += r.Captures
		co.ledger.DeadLettered += r.Dead
	}
	return nil
}

// Grant answers a lease request: a grant, an idle hint, or drained.
func (co *Coordinator) Grant(worker string, capacity int) *Frame {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.lastSeen[worker] = co.cfg.Now()
	if co.drainedLocked() {
		return &Frame{Type: FrameDrained}
	}
	active := len(co.byLease)
	if active >= co.cfg.MaxActiveLeases {
		co.ledger.Shed++
		if co.metrics != nil {
			co.metrics.shed.Inc()
		}
		return co.idleFrame()
	}
	// Lowest-first eligible chunk whose domains aren't already leased:
	// the politeness guard, fleet-wide — two workers never crawl one
	// registrable domain concurrently, mirroring StreamPlatform's
	// per-domain spacing.
	for _, c := range co.chunks {
		if c.state != chunkPending {
			continue
		}
		if co.domainsHeld(c) {
			continue
		}
		return co.grantLocked(worker, c)
	}
	return co.idleFrame()
}

func (co *Coordinator) domainsHeld(c *chunk) bool {
	for d := range c.domains {
		if co.held[d] > 0 {
			return true
		}
	}
	return false
}

func (co *Coordinator) grantLocked(worker string, c *chunk) *Frame {
	co.nextID++
	c.state = chunkActive
	c.attempts++
	c.lease = co.nextID
	c.worker = worker
	c.deadline = co.cfg.Now().Add(co.cfg.LeaseTTL)
	co.byLease[c.lease] = c
	for d := range c.domains {
		co.held[d]++
	}
	co.ledger.Leases++
	if co.metrics != nil {
		co.metrics.granted.Inc()
	}
	var trace string
	if co.cfg.Tracer != nil {
		// Span identity is structural: (name, Start attrs). first+attempt
		// uniquely identifies this lease across the run; worker and
		// outcome are display-only post-Start attrs. The span's context
		// rides the grant so every downstream span — worker visits, the
		// ordered push, ring fan-out, capd ingest — joins this trace.
		// No worker attr: which worker wins a lease is a scheduling
		// accident, and recording it would break byte-identical trace
		// exports across worker counts.
		sp := co.cfg.Tracer.Start("lease",
			obs.A("first", fmt.Sprintf("%d", c.first)),
			obs.A("attempt", fmt.Sprintf("%d", c.attempts)))
		co.spans[c.lease] = sp
		trace = sp.Context().Traceparent()
	}
	return &Frame{
		Type:  FrameLeaseGrant,
		Lease: c.lease,
		First: c.first,
		N:     c.n(),
		Items: c.items,
		TTLMS: co.cfg.LeaseTTL.Milliseconds(),
		Trace: trace,
	}
}

func (co *Coordinator) idleFrame() *Frame {
	return &Frame{Type: FrameIdle, RetryMS: co.cfg.IdleRetry.Milliseconds()}
}

// Heartbeat extends a lease. An unknown or superseded lease gets an
// error frame — the signal for a worker to abandon the chunk.
func (co *Coordinator) Heartbeat(worker string, lease int64) *Frame {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.lastSeen[worker] = co.cfg.Now()
	c, ok := co.byLease[lease]
	if !ok || c.worker != worker {
		return &Frame{Type: FrameError, Err: fmt.Sprintf("unknown lease %d for worker %s", lease, worker)}
	}
	c.deadline = co.cfg.Now().Add(co.cfg.LeaseTTL)
	return &Frame{Type: FrameAck}
}

// Complete accounts a lease's per-item outcomes. A completion for a
// lease that was reassigned (and possibly finished elsewhere) is
// acknowledged as a duplicate: the worker already pushed its batch, but
// the ordered ingest path drops re-deliveries, so nothing double-counts.
func (co *Coordinator) Complete(worker string, lease int64, results []Result) *Frame {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.lastSeen[worker] = co.cfg.Now()
	c, ok := co.byLease[lease]
	if !ok || c.worker != worker {
		co.ledger.DuplicateCompletions++
		if co.metrics != nil {
			co.metrics.dupCompletions.Inc()
		}
		return &Frame{Type: FrameAck, Dup: true}
	}
	lo, hi := c.first, c.first+int64(c.n())
	for _, r := range results {
		if r.Seq < lo || r.Seq >= hi {
			return &Frame{Type: FrameError, Err: fmt.Sprintf("result seq %d outside lease range [%d,%d)", r.Seq, lo, hi)}
		}
	}
	if len(results) != c.n() {
		return &Frame{Type: FrameError, Err: fmt.Sprintf("completion has %d results for %d items", len(results), c.n())}
	}
	co.releaseLocked(c)
	c.state = chunkDone
	var caps, dead int64
	for _, r := range results {
		if r.Captured {
			caps++
		} else {
			dead++
			if co.cfg.DeadLetter != nil {
				it := c.items[r.Seq-c.first]
				co.cfg.DeadLetter.Add(resilience.DeadEntry{
					URL: it.URL, Domain: it.Domain, Day: it.Day,
					Attempts: r.Attempts, Reason: r.Reason, LastErr: r.Err,
				})
			}
		}
	}
	co.ledger.Captures += caps
	co.ledger.DeadLettered += dead
	co.ledger.Completions++
	if co.metrics != nil {
		co.metrics.completions.Inc()
		co.metrics.captured.Add(caps)
		co.metrics.dead.Add(dead)
	}
	if sp := co.spans[lease]; sp != nil {
		sp.Attr("outcome", "completed")
		sp.End()
		delete(co.spans, lease)
	}
	if co.ckpt != nil {
		if err := appendCheckpoint(co.ckpt, ckptRecord{Kind: ckptDone, Chunk: c.idx, First: c.first, N: c.n(), Captures: caps, Dead: dead}); err != nil {
			// The in-memory account stays authoritative; a restart just
			// re-runs this chunk (idempotent downstream).
			return &Frame{Type: FrameError, Err: fmt.Sprintf("checkpoint append: %v", err)}
		}
	}
	co.checkDrained()
	return &Frame{Type: FrameAck}
}

// releaseLocked drops a chunk's lease bookkeeping.
func (co *Coordinator) releaseLocked(c *chunk) {
	delete(co.byLease, c.lease)
	for d := range c.domains {
		if co.held[d]--; co.held[d] <= 0 {
			delete(co.held, d)
		}
	}
	c.lease = 0
	c.worker = ""
}

// Sweep expires overdue leases, dead-letters chunks past the retry
// budget, and retries pending cursor skips. Call it periodically
// (cmd/fleetd ticks at TTL/2).
func (co *Coordinator) Sweep() {
	co.mu.Lock()
	now := co.cfg.Now()
	var expired []*chunk
	for _, c := range co.byLease {
		if now.After(c.deadline) {
			expired = append(expired, c)
		}
	}
	// Deterministic processing order for logs/metrics.
	sort.Slice(expired, func(i, j int) bool { return expired[i].first < expired[j].first })
	for _, c := range expired {
		lease := c.lease
		co.releaseLocked(c)
		co.ledger.Reassigned++
		if co.metrics != nil {
			co.metrics.reassigned.Inc()
		}
		if sp := co.spans[lease]; sp != nil {
			sp.Attr("outcome", "expired")
			sp.End()
			delete(co.spans, lease)
		}
		if c.attempts > co.cfg.LeaseRetryBudget {
			co.killLocked(c)
		} else {
			c.state = chunkPending
		}
	}
	skips := co.skips
	co.skips = nil
	skip := co.cfg.Skip
	co.mu.Unlock()

	// Flush cursor skips outside the lock: Skip is an HTTP call.
	var remaining []skipRange
	for _, s := range skips {
		if skip == nil {
			continue
		}
		if err := skip(s.at, s.n); err != nil {
			remaining = append(remaining, s)
		}
	}
	co.mu.Lock()
	co.skips = append(remaining, co.skips...)
	co.checkDrained()
	co.mu.Unlock()
}

// killLocked dead-letters a chunk whose leases expired past the budget.
func (co *Coordinator) killLocked(c *chunk) {
	c.state = chunkDead
	var dead int64
	for _, it := range c.items {
		dead++
		if co.cfg.DeadLetter != nil {
			co.cfg.DeadLetter.Add(resilience.DeadEntry{
				URL: it.URL, Domain: it.Domain, Day: it.Day,
				Attempts: c.attempts, Reason: ReasonLeaseExpired,
			})
		}
	}
	co.ledger.DeadLettered += dead
	if co.metrics != nil {
		co.metrics.dead.Add(dead)
	}
	co.skips = append(co.skips, skipRange{at: c.first, n: int64(c.n())})
	if co.ckpt != nil {
		appendCheckpoint(co.ckpt, ckptRecord{Kind: ckptDead, Chunk: c.idx, First: c.first, N: c.n(), Dead: dead}) //nolint:errcheck
	}
}

// Abort drops all unfinished work (counted as Dropped, dead-lettered
// with the shutdown reason) so the ledger invariant can be audited
// after an early shutdown.
func (co *Coordinator) Abort() {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, c := range co.chunks {
		if c.state == chunkDone || c.state == chunkDead {
			continue
		}
		if c.state == chunkActive {
			co.releaseLocked(c)
		}
		c.state = chunkDead
		co.ledger.Dropped += int64(c.n())
		if co.cfg.DeadLetter != nil {
			for _, it := range c.items {
				co.cfg.DeadLetter.Add(resilience.DeadEntry{
					URL: it.URL, Domain: it.Domain, Day: it.Day,
					Reason: resilience.ReasonShutdownDrop,
				})
			}
		}
	}
	co.checkDrained()
}

// drainedLocked reports whether every chunk is accounted for and every
// dead range's cursor skip has been delivered.
func (co *Coordinator) drainedLocked() bool {
	if len(co.skips) > 0 {
		return false
	}
	for _, c := range co.chunks {
		if c.state != chunkDone && c.state != chunkDead {
			return false
		}
	}
	return true
}

func (co *Coordinator) checkDrained() {
	if !co.doneSet && co.drainedLocked() {
		co.doneSet = true
		close(co.done)
	}
}

// Done is closed when the window is fully accounted for.
func (co *Coordinator) Done() <-chan struct{} { return co.done }

// Ledger snapshots the account.
func (co *Coordinator) Ledger() Ledger {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.ledger
}

// Status is the /status payload.
type Status struct {
	Ledger  Ledger `json:"ledger"`
	Chunks  int    `json:"chunks"`
	Pending int    `json:"pending"`
	Active  int    `json:"active"`
	DoneN   int    `json:"done"`
	Dead    int    `json:"dead"`
	Workers int    `json:"workers_live"`
	Drained bool   `json:"drained"`
}

// Status snapshots coordinator state for operators and the smoke test.
func (co *Coordinator) Status() Status {
	co.mu.Lock()
	defer co.mu.Unlock()
	st := Status{Ledger: co.ledger, Chunks: len(co.chunks), Drained: co.drainedLocked()}
	for _, c := range co.chunks {
		switch c.state {
		case chunkPending:
			st.Pending++
		case chunkActive:
			st.Active++
		case chunkDone:
			st.DoneN++
		case chunkDead:
			st.Dead++
		}
	}
	st.Workers = co.liveWorkersLocked()
	return st
}

// liveWorkersLocked counts workers seen within two lease TTLs.
func (co *Coordinator) liveWorkersLocked() int {
	cutoff := co.cfg.Now().Add(-2 * co.cfg.LeaseTTL)
	n := 0
	for _, t := range co.lastSeen {
		if t.After(cutoff) {
			n++
		}
	}
	return n
}

// Close flushes the checkpoint log.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.ckpt != nil {
		return co.ckpt.Close()
	}
	return nil
}
