package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one bench-side measurement of a layer boundary: a call into
// a public function or an http.Handler, timed from outside the program
// under test.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the request body's length where the boundary is an HTTP
	// handler.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layerOf is the module a span belongs to: the name up to the dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: start returns a no-op.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

var noop = func() {}

// start opens a span and returns the function that closes it. trace
// joins spans of one request where the boundary carries an identifier
// (a push's canonical position); elsewhere parents are resolved by
// time containment.
func (r *recorder) start(name, trace string) func() { return r.startSized(name, trace, 0) }

// startSized is start for a boundary that knows its request's size.
func (r *recorder) startSized(name, trace string, bytes int64) func() {
	if r == nil {
		return noop
	}
	begin := time.Since(r.epoch).Nanoseconds()
	return func() {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Trace: trace, Start: begin, End: end, Bytes: max(bytes, 0)})
		r.mu.Unlock()
	}
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// parentsOf names, for each span name, the span names that can have
// caused it. A name that is absent hangs directly under the workload's
// root span.
var parentsOf = map[string][]string{
	"fleet.coord":      {"fleet.rpc"},
	"decision.batch":   {"decision.load"},
	"replica.ingest":   {"fleet.push", "bench.push"},
	"replica.query":    {"bench.query"},
	"capstore.ingest":  {"replica.ingest"},
	"capstore.query":   {"replica.query", "replica.sweep"},
	"capstore.segment": {"analytics.sweep", "analytics.bootstrap", "replica.converge"},
}

// resolveParents fills in Parent for every span below root: among the
// candidate parents that started no later than the child, one sharing
// the child's trace wins, then one whose interval contains the child's
// start, then the latest. Children are clipped to their parent later,
// so a delivery that outlives the request that caused it (the second
// replica of a W=1 write) never counts past the parent's end.
func resolveParents(spans []span, root int) {
	byName := map[string][]int{}
	for i := range spans {
		byName[spans[i].Name] = append(byName[spans[i].Name], i)
	}
	for _, idx := range byName {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	// lookback bounds the scan: at most this many candidates per name
	// are open at once (two client goroutines, three node senders).
	const lookback = 16
	for i := range spans {
		c := &spans[i]
		if c.ID == root {
			continue
		}
		c.Parent = root
		best, bestScore := -1, -1
		for _, pname := range parentsOf[c.Name] {
			idx := byName[pname]
			hi := sort.Search(len(idx), func(k int) bool { return spans[idx[k]].Start > c.Start })
			for k := hi - 1; k >= 0 && k >= hi-lookback; k-- {
				p := spans[idx[k]]
				score := 0
				if c.Trace != "" && p.Trace == c.Trace {
					score += 2
				}
				if p.End > c.Start {
					score++
				}
				if score > bestScore || (score == bestScore && p.Start > spans[best].Start) {
					best, bestScore = idx[k], score
				}
			}
		}
		if best >= 0 {
			c.Parent = spans[best].ID
		}
	}
}

type interval struct{ lo, hi int64 }

// unionLen is the total length of the union of the intervals after
// clipping each to [lo, hi].
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := ivs[:0:0]
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].lo < clipped[b].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.lo > end {
			end = iv.lo
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - unionLen(children[s.ID], s.Start, s.End)
	}
	return self
}

// budget is the per-layer attribution of one traced window.
type budget struct {
	// SelfSeconds is the summed self time of each layer's spans. Client
	// goroutines run in parallel, so the sum can exceed the wall time.
	SelfSeconds map[string]float64
	// NameSeconds is the same sum by span name.
	NameSeconds map[string]float64
	// Unattributed is the share of the root span that no layer span
	// covers: time the harness cannot assign to any module.
	Unattributed float64
}

// attribute resolves parents and folds self times by layer. The root
// span's own self time is exactly the unattributed time.
func attribute(spans []span, root int) budget {
	resolveParents(spans, root)
	self := selfTimes(spans)
	b := budget{SelfSeconds: map[string]float64{}, NameSeconds: map[string]float64{}}
	var rootSpan span
	var covered []interval
	for _, s := range spans {
		if s.ID == root {
			rootSpan = s
			continue
		}
		b.SelfSeconds[layerOf(s.Name)] += float64(self[s.ID]) / 1e9
		b.NameSeconds[s.Name] += float64(self[s.ID]) / 1e9
		covered = append(covered, interval{s.Start, s.End})
	}
	if rootSpan.dur() > 0 {
		b.Unattributed = 1 - float64(unionLen(covered, rootSpan.Start, rootSpan.End))/float64(rootSpan.dur())
	}
	return b
}

// slowest names the layer with the most self time and its share of all
// attributed self time. The harness's own waiting spans (bench.*) are
// reported but never named the slowest layer of the system.
func (b budget) slowest() (layer string, share float64) {
	var total, top float64
	for l, s := range b.SelfSeconds {
		total += s
		if l != "bench" && (s > top || (s == top && l < layer)) {
			layer, top = l, s
		}
	}
	if total == 0 {
		return "", 0
	}
	return layer, top / total
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
