// Package replica turns N independent capd storage nodes into one
// replicated capture store that survives the loss (and return) of any
// single node.
//
// Placement is by segment: the deterministic consistent-hash ring
// (internal/ring) assigns each of the store's S segments to R of the N
// nodes. Every node runs a plain capd with the full S-segment layout;
// only its placed segments ever receive records.
//
// The correctness core is the canonical-prefix property. The Writer
// owns the single global commit order (the fleet's ordered work-item
// cursor, or arrival order for unordered pushes) and each node is fed
// by exactly one sender goroutine delivering committed sub-batches in
// that order over the node's unordered /ingest, whose per-record
// idempotency keys make re-delivery safe. Every node segment is
// therefore always a byte prefix of the canonical single-store
// segment — so replica repair never needs record-level reconciliation:
// verify the prefix hash, then re-stream the missing suffix from a
// healthy peer (capstore's manifest/segment API). A full query sweep
// over the ring after any schedule of single-node crashes and repairs
// is byte-identical to a single-node store fed the same commits.
//
// Failure handling per node is a three-state machine: up → down (a
// delivery failed; committed sub-batches accumulate as hinted handoff,
// optionally mirrored to a durable NDJSON log with torn-tail
// repair-on-open) → dirty (the handoff bound overflowed; hints are
// dropped to the dead-letter counter and the node is flagged for
// anti-entropy repair). Every revival starts with a repair pass to the
// commit watermark — a node that died hard may have lost appends it
// already acknowledged, which hint replay alone cannot heal; when
// nothing is missing the pass is one cheap manifest diff — and then
// queued hints and live deliveries resume (re-delivery is idempotent).
// Writes ack at a per-shard quorum W; reads
// (Reader) are routed to the one segment a domain lives in or fanned
// out per segment, first healthy replica wins, failing over mid-stream
// by record offset.
package replica

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/obs"
	"repro/internal/ring"
)

// ErrQuorumTimeout is surfaced when a committed batch cannot reach its
// write quorum within Config.QuorumTimeout. The batch stays committed
// (its position in the canonical order is taken and its deliveries
// remain queued); the pusher should retry, which re-waits on the same
// commit.
var ErrQuorumTimeout = fmt.Errorf("replica: write quorum not reached: %w", capstore.ErrUnavailable)

// ErrClosed is returned for pushes after Close.
var ErrClosed = errors.New("replica: writer closed")

// NodeConfig names one storage node and its capd base URL.
type NodeConfig struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Config parameterizes the replicated writer.
type Config struct {
	// Nodes are the storage nodes (at least Replicas of them).
	Nodes []NodeConfig
	// Shards is the segment count every node's store was created with.
	Shards int
	// Seed roots the placement ring.
	Seed uint64
	// Replicas is the ring's replication factor R (default 2).
	Replicas int
	// Quorum is the per-shard write quorum W (default 1, clamped to
	// [1, Replicas]). With R=2, W=1 keeps ingest available through any
	// single-node loss.
	Quorum int
	// MaxPendingBatches bounds the ordered-mode reorder buffer; beyond
	// it out-of-order pushes are shed with ErrIngestShed (default
	// capstore.DefaultMaxPendingBatches).
	MaxPendingBatches int
	// MaxHandoff bounds the hinted-handoff queue of a down node, in
	// batches; overflow drops the hints and flags the node dirty for
	// anti-entropy repair (default 256).
	MaxHandoff int
	// HandoffDir, when set, mirrors each node's hinted handoff to a
	// durable NDJSON log (handoff-<node>.ndjson) with torn-tail
	// repair-on-open; hints found at startup are requeued.
	HandoffDir string
	// QuorumTimeout bounds how long a push waits for its write quorum
	// before surfacing ErrQuorumTimeout (default 5s).
	QuorumTimeout time.Duration
	// ProbeInterval paces the /healthz revival probes of a down node
	// (default 100ms).
	ProbeInterval time.Duration
	// NodeTimeout bounds each HTTP call to a node (default 10s).
	NodeTimeout time.Duration
	// Registry, when non-nil, receives the replication metrics.
	Registry *obs.Registry
	// Tracer, when non-nil, records a ring.ingest span per traced
	// commit (the pusher's Traceparent header parents it) and stamps
	// the span's context onto every per-node delivery.
	Tracer *obs.Tracer
	// HTTP overrides the per-node HTTP client (tests).
	HTTP *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Quorum <= 0 {
		c.Quorum = 1
	}
	if c.Quorum > c.Replicas {
		c.Quorum = c.Replicas
	}
	if c.MaxHandoff <= 0 {
		c.MaxHandoff = 256
	}
	if c.QuorumTimeout <= 0 {
		c.QuorumTimeout = 5 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.NodeTimeout <= 0 {
		c.NodeTimeout = 10 * time.Second
	}
	return c
}

// metrics is the nil-safe obs wiring (every field no-ops unregistered).
type metrics struct {
	nodeUp        *obs.GaugeVec
	handoffDepth  *obs.GaugeVec
	deadLetters   *obs.CounterVec
	repairs       *obs.CounterVec
	repairRecords *obs.Counter
	repairBytes   *obs.Counter
	diverged      *obs.Counter
	quorumSeconds *obs.Histogram
	committed     *obs.Counter
	shed          *obs.Counter
	failovers     *obs.Counter
	// Per read plan (planRouted, planFanout, planCount).
	readSeconds  [len(planNames)]*obs.Histogram
	readSegments [len(planNames)]*obs.Counter
}

func newMetrics(r *obs.Registry) metrics {
	m := metrics{
		nodeUp:        obs.NewGaugeVec(r, "repl_node_up", "1 while the storage node is accepting deliveries, 0 while down.", "node"),
		handoffDepth:  obs.NewGaugeVec(r, "repl_handoff_depth", "Queued batches awaiting delivery to the node (hinted handoff while down).", "node"),
		deadLetters:   obs.NewCounterVec(r, "repl_handoff_dropped_total", "Hinted-handoff batches dropped on overflow (node flagged dirty for repair).", "node"),
		repairs:       obs.NewCounterVec(r, "repl_repairs_total", "Anti-entropy repair passes completed for the node.", "node"),
		repairRecords: obs.NewCounter(r, "repl_repair_records_total", "Records re-streamed into lagging replicas by repair."),
		repairBytes:   obs.NewCounter(r, "repl_repair_bytes_total", "Wire-format bytes re-streamed into lagging replicas by repair."),
		diverged:      obs.NewCounter(r, "repl_repair_diverged_total", "Segments whose prefix hash failed verification (never auto-repaired)."),
		quorumSeconds: obs.NewHistogram(r, "repl_quorum_wait_seconds", "Commit-to-write-quorum latency.", obs.LatencyBuckets),
		committed:     obs.NewCounter(r, "repl_committed_records_total", "Records committed to the canonical order."),
		shed:          obs.NewCounter(r, "repl_ingest_shed_total", "Ordered-mode pushes shed because the reorder buffer was full."),
		failovers:     obs.NewCounter(r, "repl_read_failovers_total", "Per-segment read attempts that failed over to another replica."),
	}
	seconds := obs.NewHistogramVec(r, "repl_read_seconds", "Wall time of one ring read, plan to last row.", obs.LatencyBuckets, "plan")
	segments := obs.NewCounterVec(r, "repl_read_segments_total", "Segments ring reads were sent to.", "plan")
	for p, name := range planNames {
		m.readSeconds[p] = seconds.With(name)
		m.readSegments[p] = segments.With(name)
	}
	return m
}

// item is one committed sub-batch bound for one node: the lines of
// every placed shard this node covers, in canonical commit order,
// forwarded as the ring received them.
type item struct {
	lines   [][]byte
	domains [][]byte // domains[i] is lines[i]'s final domain
	shards  []int    // distinct shards covered, for quorum acking
	wait    *commitWait
	// tp is the commit's ring.ingest span context, forwarded on the
	// node delivery so capd's ingest span joins the same trace. Empty
	// for untraced commits and handoff replays loaded from disk.
	tp string
}

// commitWait tracks one commit's write quorum: each touched shard
// needs W node acks; done closes when every shard has them.
type commitWait struct {
	seq       int64 // ordered-mode position, -1 for unordered commits
	need      map[int]int
	remaining int
	start     time.Time
	done      chan struct{}
	span      *obs.Span // ring.ingest span, ended when the quorum lands
}

type nodeState int

const (
	nodeUp nodeState = iota
	nodeDown
)

// node is one storage node's delivery machinery. A single sender
// goroutine drains queue in order, its whole backlog per /ingest —
// the only writer to the node's /ingest, which is what preserves the
// canonical-prefix property (repair runs inside the same goroutine, so
// it serializes against live appends).
type node struct {
	name string
	cl   *capstore.Client
	w    *Writer

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []item
	sending bool // the sender holds a dequeued item
	st      nodeState
	dirty   bool
	closed  bool
	handoff *handoffLog // nil without HandoffDir
	// probeAt is when awaitRevival may next probe /healthz: one
	// ProbeInterval after the failed delivery or the failed probe
	// before it. Only the sender goroutine reads or writes it.
	probeAt time.Time
	// delivered counts the records per shard this node has
	// acknowledged — what its store must durably hold. A clean
	// revival repairs to this watermark (anything above it is still
	// queued or in flight and arrives in order); a dirty revival owes
	// the writer's full canonical counts instead.
	delivered []int64

	depth *obs.Gauge
	up    *obs.Gauge
	dead  *obs.Counter
}

// Writer is the replicating ingest proxy: the single owner of the
// canonical commit order, fanning each committed batch to its placed
// nodes with quorum accounting.
type Writer struct {
	cfg    Config
	ring   *ring.Ring
	nodes  []*node
	byName map[string]*node
	m      metrics

	mu sync.Mutex
	// seq orders the fleet's commits; a buffered batch keeps its
	// pusher's trace context and commits under it when the gap fills.
	seq         *capstore.Sequencer
	awaiting    map[int64]*commitWait
	shardCounts []int64 // canonical records committed per shard
	committed   int64
	closed      bool
	done        chan struct{}
	// progress is closed and replaced whenever a sender finishes a
	// delivery or a node finishes a revival: what WaitConverged waits on
	// between looks.
	progress chan struct{}

	wg sync.WaitGroup
}

// NewWriter builds the proxy, loads any durable handoff hints, and
// starts one sender per node.
func NewWriter(cfg Config) (*Writer, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 0 {
		return nil, errors.New("replica: Config.Shards must be positive")
	}
	if len(cfg.Nodes) < cfg.Replicas {
		return nil, fmt.Errorf("replica: %d nodes cannot hold %d replicas", len(cfg.Nodes), cfg.Replicas)
	}
	names := make([]string, len(cfg.Nodes))
	for i, nc := range cfg.Nodes {
		if nc.Name == "" || nc.URL == "" {
			return nil, fmt.Errorf("replica: node %d needs both name and URL", i)
		}
		names[i] = nc.Name
	}
	// The ring's point count is ring.DefaultVirtualNodes, not a knob:
	// placement is derived from it, so it may never differ between a
	// capring and its restart.
	rg, err := ring.New(ring.Config{Seed: cfg.Seed, Nodes: names, Replicas: cfg.Replicas})
	if err != nil {
		return nil, err
	}
	w := &Writer{
		cfg:         cfg,
		ring:        rg,
		byName:      make(map[string]*node, len(cfg.Nodes)),
		m:           newMetrics(cfg.Registry),
		seq:         capstore.NewSequencer(cfg.MaxPendingBatches),
		awaiting:    make(map[int64]*commitWait),
		shardCounts: make([]int64, cfg.Shards),
		done:        make(chan struct{}),
		progress:    make(chan struct{}),
	}
	httpClient := cfg.HTTP
	if httpClient == nil {
		httpClient = capstore.HTTPClient(cfg.NodeTimeout)
	}
	for _, nc := range cfg.Nodes {
		cl := capstore.NewClient(nc.URL)
		cl.HTTP = httpClient
		n := &node{
			name:      nc.Name,
			cl:        cl,
			w:         w,
			depth:     w.m.handoffDepth.With(nc.Name),
			up:        w.m.nodeUp.With(nc.Name),
			dead:      w.m.deadLetters.With(nc.Name),
			delivered: make([]int64, cfg.Shards),
		}
		n.cond = sync.NewCond(&n.mu)
		n.up.Set(1)
		if cfg.HandoffDir != "" {
			log, hints, err := openHandoffLog(cfg.HandoffDir, nc.Name)
			if err != nil {
				return nil, err
			}
			n.handoff = log
			for _, h := range hints {
				it, err := h.item()
				if err != nil {
					return nil, fmt.Errorf("replica: handoff log %s: %w", nc.Name, err)
				}
				n.queue = append(n.queue, it)
			}
			n.depth.Set(float64(len(n.queue)))
		}
		w.nodes = append(w.nodes, n)
		w.byName[nc.Name] = n
	}
	for _, n := range w.nodes {
		w.wg.Add(1)
		go func(n *node) {
			defer w.wg.Done()
			n.run()
		}(n)
	}
	return w, nil
}

// Ring exposes the placement ring (for /ring and the Reader).
func (w *Writer) Ring() *ring.Ring { return w.ring }

func (w *Writer) isClosed() bool {
	select {
	case <-w.done:
		return true
	default:
		return false
	}
}

// Close stops the senders. Queued hints that have not been delivered
// stay in the durable handoff log (when configured) for the next run.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	close(w.done)
	w.mu.Unlock()
	for _, n := range w.nodes {
		n.mu.Lock()
		n.closed = true
		n.cond.Broadcast()
		n.mu.Unlock()
	}
	w.wg.Wait()
	if w.cfg.HTTP == nil {
		// The node clients are the storage transport's: their
		// connections to the nodes are idle now.
		capstore.CloseIdleConnections()
	}
	var err error
	for _, n := range w.nodes {
		if n.handoff != nil {
			if cerr := n.handoff.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// RecordBatch commits caps immediately in arrival order (unordered
// mode) and waits for the write quorum.
func (w *Writer) RecordBatch(caps []*capture.Capture) (capstore.IngestResult, error) {
	b, err := capstore.BatchOf(caps)
	if err != nil {
		return capstore.IngestResult{}, fmt.Errorf("%w: %v", capstore.ErrBadRequest, err)
	}
	return w.Commit(b)
}

// RecordBatchAt commits the ordered batch covering work items
// [at, at+n) — the fleet's commit path, with the same contract as a
// single capd's ordered /ingest because the same Sequencer decides it:
// batches commit strictly in range order, out-of-order arrivals buffer
// (bounded, shedding with ErrIngestShed beyond the bound), and
// re-delivered ranges are dropped whole as duplicates. In-order pushes
// additionally wait for the write quorum of their own records.
func (w *Writer) RecordBatchAt(at, n int64, caps []*capture.Capture) (capstore.IngestResult, error) {
	b, err := capstore.BatchOf(caps)
	if err != nil {
		return capstore.IngestResult{}, fmt.Errorf("%w: %v", capstore.ErrBadRequest, err)
	}
	b.Ordered, b.At, b.N = true, at, n
	return w.Commit(b)
}

// Commit is the write path behind both: it gives the batch its place in
// the canonical order, fans it out, and waits for its write quorum.
// When the writer has a Tracer and the batch a trace context, each
// commit records a ring.ingest span parented by it and forwards the
// span's context on every node delivery.
func (w *Writer) Commit(b capstore.Batch) (capstore.IngestResult, error) {
	res, wait, err := w.place(b)
	if err != nil {
		return capstore.IngestResult{}, err
	}
	return w.await(wait, res)
}

// place is Commit up to the wait: the reply the batch has earned and
// the quorum, if any, it must still see.
func (w *Writer) place(b capstore.Batch) (res capstore.IngestResult, wait *commitWait, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return res, nil, ErrClosed
	}
	res.Accepted = int64(len(b.Lines))
	if !b.Ordered {
		return res, w.fanOutLocked(b), nil
	}
	outcome, err := w.seq.Offer(b, func(due capstore.Batch) {
		if cw := w.fanOutLocked(due); due.At == b.At {
			wait = cw
		}
	})
	switch {
	case err != nil:
		return res, nil, err
	case outcome == capstore.Shed:
		w.m.shed.Inc()
		return res, nil, capstore.ErrIngestShed
	case outcome == capstore.Duplicate:
		// If the range is committed but its quorum still outstanding,
		// the re-pusher waits on it (an ambiguous earlier failure must
		// not ack before the records are actually safe).
		wait = w.awaiting[b.At]
		res = capstore.IngestResult{Duplicates: int64(len(b.Lines))}
	}
	res.Pending = w.seq.Pending()
	return res, wait, nil
}

// fanOutLocked splits the batch by shard, enqueues each node's sub-batch
// on its sender, and registers the commit's quorum accounting; nil
// means nothing fanned out (an empty batch, a skip-range commit).
// Caller holds w.mu; enqueue order across nodes is the canonical order
// because this lock serializes all commits.
func (w *Writer) fanOutLocked(b capstore.Batch) *commitWait {
	sp := b.Span(w.cfg.Tracer, "ring.ingest")
	if len(b.Lines) == 0 {
		sp.End() // no records to wait for
		return nil
	}
	seq := int64(-1)
	if b.Ordered {
		seq = b.At
	}
	tp := sp.Context().Traceparent()
	perNode := make(map[string]*item)
	nodeShards := make(map[string]map[int]bool)
	touched := make(map[int]bool)
	for i, line := range b.Lines {
		domain := b.Keys[i].Domain
		s := capstore.ShardOf(domain, w.cfg.Shards)
		w.shardCounts[s]++
		touched[s] = true
		for _, name := range w.ring.PlaceSegment(s) {
			it := perNode[name]
			if it == nil {
				it = &item{}
				perNode[name] = it
				nodeShards[name] = make(map[int]bool)
			}
			it.lines = append(it.lines, line)
			it.domains = append(it.domains, domain)
			nodeShards[name][s] = true
		}
	}
	w.committed += int64(len(b.Lines))
	w.m.committed.Add(int64(len(b.Lines)))

	wait := &commitWait{seq: seq, need: make(map[int]int, len(touched)), start: time.Now(), done: make(chan struct{}), span: sp}
	enqueued := make(map[int]int, len(touched))
	// Deterministic fan-out order keeps runs comparable (map iteration
	// would shuffle only goroutine wakeups, never bytes, but stable
	// order makes schedules reproducible in tests and traces).
	names := make([]string, 0, len(perNode))
	for name := range perNode {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		it := perNode[name]
		it.wait = wait
		it.tp = tp
		for s := range nodeShards[name] {
			it.shards = append(it.shards, s)
		}
		sort.Ints(it.shards)
		if w.byName[name].enqueue(*it) {
			for _, s := range it.shards {
				enqueued[s]++
			}
		}
	}
	for s := range touched {
		need := w.cfg.Quorum
		if n := enqueued[s]; n < need && n > 0 {
			// Fewer live replicas than W (the rest are dirty): ack at
			// what is reachable rather than stalling ingest — repair
			// restores full replication afterwards.
			need = n
		}
		wait.need[s] = need
		wait.remaining++
	}
	if seq >= 0 {
		w.awaiting[seq] = wait
	}
	return wait
}

// noteProgressLocked wakes WaitConverged. Caller holds w.mu.
func (w *Writer) noteProgressLocked() {
	close(w.progress)
	w.progress = make(chan struct{})
}

// ackDelivery credits each delivered sub-batch of run, in order,
// against its commit's quorum.
func (w *Writer) ackDelivery(run []item) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, it := range run {
		wait := it.wait
		if wait == nil {
			continue
		}
		for _, s := range it.shards {
			if n := wait.need[s]; n > 0 {
				wait.need[s] = n - 1
				if n == 1 {
					wait.remaining--
				}
			}
		}
		if wait.remaining == 0 && !isClosedChan(wait.done) {
			close(wait.done)
			w.m.quorumSeconds.Observe(time.Since(wait.start).Seconds())
			wait.span.End() // span brackets commit → write quorum
			if wait.seq >= 0 {
				delete(w.awaiting, wait.seq)
			}
		}
	}
}

func isClosedChan(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// await blocks until the commit reaches quorum, the timeout passes, or
// the writer closes.
func (w *Writer) await(wait *commitWait, res capstore.IngestResult) (capstore.IngestResult, error) {
	if wait == nil {
		return res, nil
	}
	t := time.NewTimer(w.cfg.QuorumTimeout)
	defer t.Stop()
	select {
	case <-wait.done:
		return res, nil
	case <-t.C:
		return res, ErrQuorumTimeout
	case <-w.done:
		return res, ErrClosed
	}
}

// NodeStatus is one node's state snapshot.
type NodeStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Up      bool   `json:"up"`
	Dirty   bool   `json:"dirty"`
	Handoff int    `json:"handoff"` // queued batches
}

// Stats is the writer's state snapshot.
type Stats struct {
	NextSeq   int64        `json:"next_seq"`
	Committed int64        `json:"committed_records"`
	Pending   int          `json:"pending_batches"`
	Awaiting  int          `json:"awaiting_quorum"`
	Nodes     []NodeStatus `json:"nodes"`
}

// Stats snapshots the writer.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	st := Stats{NextSeq: w.seq.Next(), Committed: w.committed, Pending: w.seq.Pending(), Awaiting: len(w.awaiting)}
	w.mu.Unlock()
	for i, nc := range w.cfg.Nodes {
		n := w.nodes[i]
		n.mu.Lock()
		st.Nodes = append(st.Nodes, NodeStatus{
			Name: n.name, URL: nc.URL,
			Up: n.st == nodeUp, Dirty: n.dirty, Handoff: len(n.queue),
		})
		n.mu.Unlock()
	}
	return st
}

// Converged reports whether every queue is drained, every quorum is
// settled, and every node's placed segments hold exactly the canonical
// record counts — the smoke tests' repair-completion gate. A look reads
// each node's /stats, which counts records without hashing any.
func (w *Writer) Converged() (bool, error) {
	w.mu.Lock()
	counts := append([]int64(nil), w.shardCounts...)
	awaiting := len(w.awaiting)
	pending := w.seq.Pending()
	w.mu.Unlock()
	if awaiting > 0 || pending > 0 {
		return false, nil
	}
	for _, n := range w.nodes {
		n.mu.Lock()
		busy := len(n.queue) > 0 || n.sending || n.st != nodeUp || n.dirty
		n.mu.Unlock()
		if busy {
			return false, nil
		}
		st, err := n.cl.Stats()
		if err != nil {
			return false, err
		}
		if len(st.Shards) != w.cfg.Shards {
			return false, fmt.Errorf("replica: node %s has %d segments, ring expects %d", n.name, len(st.Shards), w.cfg.Shards)
		}
		for _, s := range w.ring.SegmentsOf(n.name, w.cfg.Shards) {
			if int64(st.Shards[s].Records) != counts[s] {
				return false, nil
			}
		}
	}
	return true, nil
}

// WaitConverged waits until Converged holds or timeout passes. It
// looks again whenever a sender finishes a delivery or a node finishes
// a revival, the events that can make it hold, and, after a look that
// failed to reach a node, once per ProbeInterval.
func (w *Writer) WaitConverged(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		w.mu.Lock()
		progress := w.progress
		w.mu.Unlock()
		ok, err := w.Converged()
		if ok {
			return nil
		}
		var retry <-chan time.Time
		if err != nil {
			retry = time.After(w.cfg.ProbeInterval)
		}
		select {
		case <-progress:
		case <-retry:
		case <-w.done:
			return ErrClosed
		case <-deadline.C:
			if err == nil {
				err = errors.New("replicas not converged")
			}
			return fmt.Errorf("replica: convergence wait timed out: %w", err)
		}
	}
}

// ----- per-node sender -----

// enqueue hands a committed sub-batch to the node's sender. Returns
// false when the batch was dead-lettered: the node is down with its
// handoff dropped (dirty — repair owes these records), or this push
// overflowed the hinted-handoff bound (which drops the queue and flags
// the node dirty). A node that is back up but still repairing accepts
// enqueues normally — they queue behind the repair, which owes only
// the records committed before its watermark. Caller holds w.mu, which
// makes cross-node enqueue order the canonical commit order.
func (n *node) enqueue(it item) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return false
	}
	if n.st == nodeDown {
		if n.dirty {
			n.dead.Inc()
			return false
		}
		if len(n.queue) >= n.w.cfg.MaxHandoff {
			// Hinted handoff overflow: drop the hints, flag for repair.
			// Signal so an idle sender wakes to probe for revival.
			n.dead.Add(int64(len(n.queue)) + 1)
			n.queue = nil
			n.dirty = true
			n.depth.Set(0)
			if n.handoff != nil {
				n.handoff.Reset() //nolint:errcheck // best-effort: repair supersedes the log
			}
			n.cond.Signal()
			return false
		}
		n.queue = append(n.queue, it)
		if n.handoff != nil {
			n.handoff.Append(it) //nolint:errcheck // best-effort durability for hints
		}
	} else {
		n.queue = append(n.queue, it)
	}
	n.depth.Set(float64(len(n.queue)))
	n.cond.Signal()
	return true
}

type senderWork int

const (
	workStop senderWork = iota
	workDeliver
	workRevive
)

// maxDeliveryBytes caps the lines one coalesced delivery carries, well
// under the 64 MiB a node accepts in one /ingest body; a single
// sub-batch larger than it still goes out alone.
const maxDeliveryBytes = 4 << 20

// size is the bytes of wire lines the sub-batch carries.
func (it item) size() int {
	n := 0
	for _, line := range it.lines {
		n += len(line)
	}
	return n
}

// dequeue blocks for the sender's next piece of work: a run of queued
// sub-batches to deliver (the whole backlog, up to maxDeliveryBytes),
// a revival to probe for (the node is down-and-dirty with nothing
// queued, so no delivery would otherwise trigger one), or stop on
// close.
func (n *node) dequeue() ([]item, senderWork) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(n.queue) == 0 && !n.closed && !(n.st == nodeDown && n.dirty) {
		if n.st == nodeUp && n.handoff != nil {
			// Idle and caught up: the durable hints are all delivered.
			n.handoff.Reset() //nolint:errcheck
		}
		n.cond.Wait()
	}
	if len(n.queue) == 0 {
		if n.closed {
			return nil, workStop
		}
		return nil, workRevive
	}
	k, size := 1, n.queue[0].size()
	for ; k < len(n.queue); k++ {
		if size += n.queue[k].size(); size > maxDeliveryBytes {
			break
		}
	}
	run := n.queue[:k:k]
	n.queue = n.queue[k:]
	n.sending = true
	n.depth.Set(float64(len(n.queue)))
	return run, workDeliver
}

// run is the sender loop: the node's only writer.
func (n *node) run() {
	for {
		run, work := n.dequeue()
		switch work {
		case workStop:
			return
		case workRevive:
			if !n.awaitRevival() {
				return
			}
		case workDeliver:
			n.deliver(run)
			n.w.mu.Lock()
			n.mu.Lock()
			n.sending = false
			n.mu.Unlock()
			n.w.noteProgressLocked()
			n.w.mu.Unlock()
		}
	}
}

func (n *node) state() (st nodeState, dirty bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.st, n.dirty
}

// deliver pushes a run of sub-batches, their lines in canonical order
// in one /ingest, until it lands, the node goes dirty (repair will
// supersede it), or the writer closes. The node's ingest span joins
// the trace of the run's first commit.
func (n *node) deliver(run []item) {
	lines := run[0].lines
	if len(run) > 1 {
		lines = nil
		for _, it := range run {
			lines = append(lines, it.lines...)
		}
	}
	for {
		if n.w.isClosed() {
			return
		}
		st, dirty := n.state()
		if st == nodeDown {
			if dirty {
				// Superseded: this item was committed before the node
				// went dirty, so the revival repair owes its records.
				return
			}
			if !n.awaitRevival() {
				return
			}
		}
		_, err := n.cl.RecordLinesTrace(run[0].tp, lines)
		if err == nil {
			n.noteSuccess(run)
			n.w.ackDelivery(run)
			return
		}
		var shed *capstore.ShedError
		if errors.As(err, &shed) {
			// Node alive but shedding: plain backpressure, not an outage.
			d := shed.RetryAfter
			if d <= 0 {
				d = n.w.cfg.ProbeInterval
			}
			time.Sleep(d)
			continue
		}
		n.noteFailure(run)
	}
}

func (n *node) noteSuccess(run []item) {
	n.mu.Lock()
	if n.st != nodeUp {
		n.st = nodeUp
		n.up.Set(1)
	}
	for _, it := range run {
		for _, d := range it.domains {
			n.delivered[capstore.ShardOf(d, n.w.cfg.Shards)]++
		}
	}
	n.mu.Unlock()
}

// noteFailure transitions the node down after a failed delivery of
// run. On the up→down edge the durable hint log captures the run's
// items and then everything still queued, in order — from here until
// revival (or overflow) the log mirrors the node's entire delivery
// debt, so a proxy crash mid-outage loses nothing that was only
// hinted.
func (n *node) noteFailure(run []item) {
	n.probeAt = time.Now().Add(n.w.cfg.ProbeInterval)
	n.mu.Lock()
	if n.st != nodeDown {
		n.st = nodeDown
		n.up.Set(0)
		if n.handoff != nil {
			for _, it := range run {
				n.handoff.Append(it) //nolint:errcheck // best-effort durability for hints
			}
			for _, q := range n.queue {
				n.handoff.Append(q) //nolint:errcheck
			}
		}
	}
	n.mu.Unlock()
}

// awaitRevival probes /healthz (once per ProbeInterval) until
// the node answers, then transitions it back up — running anti-entropy
// repair first when the handoff was dropped. Returns false when the
// writer closed instead.
//
// The up transition and the repair watermark are taken under w.mu in
// one critical section: from that instant every new commit enqueues to
// this node again, and repair owes exactly the records committed
// before it. Together they cover everything; overlap is deduplicated
// by the nodes' idempotency keys without disturbing record order.
func (n *node) awaitRevival() bool {
	for {
		if n.w.isClosed() {
			return false
		}
		if !time.Now().Before(n.probeAt) {
			if _, err := n.cl.Health(); err == nil {
				n.w.mu.Lock()
				n.mu.Lock()
				n.st = nodeUp
				wasDirty := n.dirty
				n.up.Set(1)
				// The repair watermark: a dirty node dropped hints, so
				// it owes the full canonical counts; a clean node owes
				// only what it has already acknowledged — everything
				// above that is still queued (or in flight) and will
				// arrive in commit order. Repairing even a clean node
				// matters because a node that died hard may have lost
				// appends it acked (buffered writes, torn segment
				// tails); when nothing was lost the pass is one cheap
				// local manifest diff that touches no peer.
				var watermark []int64
				if wasDirty {
					watermark = append([]int64(nil), n.w.shardCounts...)
				} else {
					watermark = append([]int64(nil), n.delivered...)
				}
				n.mu.Unlock()
				n.w.mu.Unlock()
				if !n.repair(watermark) {
					return false
				}
				n.w.mu.Lock()
				n.mu.Lock()
				for s, c := range watermark {
					if n.delivered[s] < c {
						n.delivered[s] = c
					}
				}
				n.dirty = false
				n.mu.Unlock()
				n.w.noteProgressLocked()
				n.w.mu.Unlock()
				return true
			}
			n.probeAt = time.Now().Add(n.w.cfg.ProbeInterval)
		}
		time.Sleep(n.w.cfg.ProbeInterval / 4)
	}
}
