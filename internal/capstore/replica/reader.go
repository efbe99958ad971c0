package replica

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
)

// Reader answers queries over the ring. It plans before it fans out:
// a query naming a domain goes to the one segment the domain hashes to
// (route); everything else visits every segment, at most one stream
// per storage node at a time, each prefetching a bounded number of rows
// ahead of a merge that hands them on strictly in segment order — so a
// full sweep is byte-identical to the same query against a single-node
// store holding the canonical commit sequence.
//
// Each segment is served by one of its R placed replicas
// (healthy-and-clean ones are tried before known-bad ones), with
// failover resuming mid-segment at the row offset already received — a
// torn stream from a dying node costs a retry, never a gap or a
// duplicate. The offset counts rows of the node's answer, and every
// replica answers with the same subsequence of the canonical segment
// whichever index it used, so it means the same on the next replica.
//
// Reads are served while any single node is down (R ≥ 2 keeps every
// segment covered). They are first-healthy-wins, not quorum reads: a
// replica that is catching up can serve a shorter-but-correct prefix
// of a segment until repair converges.
type Reader struct {
	w *Writer
}

// Reader returns the read fan-out over the writer's ring and node
// health view.
func (w *Writer) Reader() *Reader { return &Reader{w: w} }

// rowBudget is how many rows one segment's stream may hold
// ahead of the merge. A stream that has filled it stops reading its
// response, so a read buffers at most one budget per storage node
// however large the segments are.
const rowBudget = 256

// The read plans, as the plan label of the repl_read_* families.
const (
	planRouted = iota // one segment, named by the query's domain
	planFanout        // every segment, merged in order
	planCount         // per-segment counts, summed
)

var planNames = [...]string{planRouted: "routed", planFanout: "fanout", planCount: "count"}

// route lists the segments that can hold matches of q: the one segment
// every node's store files the domain under, or all of them.
func (r *Reader) route(q capturedb.Query) []int {
	if q.Domain != "" {
		return []int{capstore.ShardOf(q.Domain, r.w.cfg.Shards)}
	}
	segs := make([]int, r.w.cfg.Shards)
	for s := range segs {
		segs[s] = s
	}
	return segs
}

// observe records one finished read under its plan.
func (r *Reader) observe(plan, segments int, start time.Time) {
	r.w.m.readSeconds[plan].Observe(time.Since(start).Seconds())
	r.w.m.readSegments[plan].Add(int64(segments))
}

// candidates orders shard s's replicas for a read attempt: up and
// clean first, placement order within each class.
func (r *Reader) candidates(s int) []*node {
	placed := r.w.ring.PlaceSegment(s)
	nodes := make([]*node, 0, len(placed))
	var degraded []*node
	for _, name := range placed {
		n := r.w.byName[name]
		n.mu.Lock()
		healthy := n.st == nodeUp && !n.dirty
		n.mu.Unlock()
		if healthy {
			nodes = append(nodes, n)
		} else {
			degraded = append(degraded, n)
		}
	}
	return append(nodes, degraded...)
}

// Query streams matches in segment order. Returning false from fn
// stops early and cancels the streams still open; limit and offset
// paginate the merged stream (0 limit means unlimited). Each match is
// decoded once, here, for fn.
func (r *Reader) Query(q capturedb.Query, limit, offset int, fn func(*capture.Capture) bool) error {
	return capturedb.DecodeLines(func(emit func([]byte) bool) error {
		return r.query(context.Background(), q, limit, offset, emit)
	}, fn)
}

// query merges the nodes' rows as the lines they stored: a row is
// copied out of its stream, to wait in the read-ahead, but never
// decoded.
func (r *Reader) query(ctx context.Context, q capturedb.Query, limit, offset int, fn func(line []byte) bool) error {
	segs := r.route(q)
	plan := planFanout
	if q.Domain != "" {
		plan = planRouted
	}
	defer r.observe(plan, len(segs), time.Now())
	return mergeSegments(ctx, r, segs, rowBudget,
		func(ctx context.Context, nd *node, s, got int, emit func([]byte) bool) error {
			return nd.cl.QueryShardLines(ctx, s, q, 0, got, func(line []byte) bool {
				return emit(bytes.Clone(line))
			})
		},
		capstore.Page(limit, offset, fn))
}

// Count sums per-segment counts over the segments Query would visit.
func (r *Reader) Count(q capturedb.Query) (int, error) {
	return r.count(context.Background(), q)
}

func (r *Reader) count(ctx context.Context, q capturedb.Query) (int, error) {
	segs := r.route(q)
	defer r.observe(planCount, len(segs), time.Now())
	total := 0
	err := mergeSegments(ctx, r, segs, 1,
		func(ctx context.Context, nd *node, s, _ int, emit func(int) bool) error {
			n, err := nd.cl.CountShard(ctx, s, q)
			if err == nil {
				emit(n)
			}
			return err
		},
		func(n int) bool {
			total += n
			return true
		})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// segOp asks node nd for segment s, handing what it answers to emit.
// got is how many values earlier attempts at the segment already
// emitted — the resume offset; emit returning false means stop.
type segOp[T any] func(ctx context.Context, nd *node, s, got int, emit func(T) bool) error

// mergeSegments runs op over segs and hands what each segment emits to each,
// strictly in segs order, until each returns false. Segments are
// started in order, at most one per storage node ahead of the merge,
// and each buffers at most budget values; a full buffer blocks its
// stream. It returns once every stream it started has ended: an
// early stop or a cancelled ctx cancels them.
func mergeSegments[T any](ctx context.Context, r *Reader, segs []int, budget int, op segOp[T], each func(T) bool) error {
	ctx, cancel := context.WithCancel(ctx)
	f := newFanout(ctx, r)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
		f.stop()
	}()

	type stream struct {
		out chan T
		err error // set before out is closed
	}
	streams := make([]*stream, len(segs))
	window := len(r.w.nodes)
	started := 0
	for i := range segs {
		for ; started < len(segs) && started < i+window; started++ {
			s := segs[started]
			// budget values of read-ahead: see rowBudget.
			st := &stream{out: make(chan T, budget)}
			streams[started] = st
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(st.out)
				got := 0
				st.err = f.serve(s, func(ctx context.Context, nd *node) error {
					cut := false
					err := op(ctx, nd, s, got, func(v T) bool {
						select {
						case st.out <- v:
							got++
							return true
						case <-ctx.Done():
							cut = true
							return false
						}
					})
					if err == nil && cut {
						err = ctx.Err()
					}
					return err
				})
			}()
		}
		st := streams[i]
		for v := range st.out {
			if !each(v) {
				return nil
			}
		}
		if st.err != nil {
			return st.err
		}
	}
	return nil
}

// fanout is the state of one mergeSegments call: which segment's stream each
// storage node is serving. A node serves one stream of a read at a
// time — its lane — which bounds both the read's load on the node and,
// with rowBudget, its memory.
type fanout struct {
	r   *Reader
	ctx context.Context

	mu      sync.Mutex
	cond    *sync.Cond
	holder  map[*node]*hold // the stream in each node's lane
	waiters map[*node][]int // the segments queued for each lane
	stop    func() bool     // unhooks the wake-up on ctx's end
}

// hold is one stream's tenure of a lane.
type hold struct {
	seg     int
	cancel  context.CancelFunc
	yielded bool // an earlier segment asked for the lane
}

func newFanout(ctx context.Context, r *Reader) *fanout {
	f := &fanout{r: r, ctx: ctx, holder: make(map[*node]*hold), waiters: make(map[*node][]int)}
	f.cond = sync.NewCond(&f.mu)
	f.stop = context.AfterFunc(ctx, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})
	return f
}

// serve is the one per-segment attempt loop: op runs against segment
// s's replicas in candidate order until one completes it. Two passes
// over the candidates: a replica that failed mid-stream (e.g. it was
// being killed) may be the only one that can finish the segment once
// it returns.
func (f *fanout) serve(s int, op func(context.Context, *node) error) error {
	var lastErr error
	cands := f.r.candidates(s)
	for round := 0; round < 2; round++ {
		for i, nd := range cands {
			if round > 0 || i > 0 {
				f.r.w.m.failovers.Inc()
			}
			err := f.onLane(s, nd, op)
			if err == nil {
				return nil
			}
			if f.ctx.Err() != nil {
				return f.ctx.Err()
			}
			lastErr = err
		}
	}
	return fmt.Errorf("replica: segment %d unavailable on all replicas (%w): %w", s, capstore.ErrUnavailable, lastErr)
}

// onLane runs op against nd once nd's lane is free. A stream holding a
// lane while its full buffer waits for the merge would deadlock an
// earlier segment that fails over onto the same node, so the earlier
// segment takes the lane: the later stream is cancelled, queues again
// and resumes by offset. That is not a failed attempt.
func (f *fanout) onLane(s int, nd *node, op func(context.Context, *node) error) error {
	for {
		h, ctx, err := f.acquire(s, nd)
		if err != nil {
			return err
		}
		err = op(ctx, nd)
		if yielded := f.release(nd, h); err == nil || !yielded {
			return err
		}
	}
}

// acquire waits for nd's lane. Among waiters the earliest segment goes
// first, and a holder later than the caller is told to yield.
func (f *fanout) acquire(s int, nd *node) (*hold, context.Context, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.waiters[nd] = append(f.waiters[nd], s)
	defer func() {
		f.waiters[nd] = slices.DeleteFunc(f.waiters[nd], func(w int) bool { return w == s })
	}()
	for {
		if err := f.ctx.Err(); err != nil {
			return nil, nil, err
		}
		h := f.holder[nd]
		if h == nil && s == slices.Min(f.waiters[nd]) {
			break
		}
		if h != nil && s < h.seg && !h.yielded {
			h.yielded = true
			h.cancel()
		}
		f.cond.Wait()
	}
	ctx, cancel := context.WithCancel(f.ctx)
	h := &hold{seg: s, cancel: cancel}
	f.holder[nd] = h
	return h, ctx, nil
}

func (f *fanout) release(nd *node, h *hold) (yielded bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	h.cancel()
	delete(f.holder, nd)
	f.cond.Broadcast()
	return h.yielded
}
