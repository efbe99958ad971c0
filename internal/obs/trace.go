package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline tracing. A Tracer collects spans — named, attributed,
// clocked intervals forming a tree: visit → retry, with store and
// detect spans recording where a capture's bytes and classification
// happened. Spans are exported as NDJSON in a canonical
// order (lexicographic by encoded line), so two runs that performed
// the same work under the same clock produce byte-identical output
// regardless of goroutine scheduling or worker count.
//
// Identity is structural, not sequential: a span's id is its name plus
// the attributes passed to Start, and children reference the parent's
// id string. Sequence numbers would differ between interleavings;
// structural ids do not.

// Attr is one key/value span attribute.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// A is shorthand for Attr{k, v}.
func A(k, v string) Attr { return Attr{K: k, V: v} }

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// Clock supplies span timestamps; injectable so traces are
	// deterministic under simulated time (default time.Now). With a
	// fixed clock every duration is zero and timestamps are constant —
	// exactly what byte-identical trace tests want.
	Clock func() time.Time
	// Cap bounds retained finished spans (default 16384); beyond it the
	// oldest are dropped and counted in Dropped.
	Cap int
	// Service names the role this tracer records for ("fleetd",
	// "worker", "capd", …) and is stamped on every exported span line.
	// It must be a role, never a per-process identity: per-process
	// names would break byte-identical exports across worker counts.
	Service string
}

// DefaultTraceCap is the default retained-span bound.
const DefaultTraceCap = 16384

// Tracer collects finished spans up to a cap. A nil *Tracer is the
// disabled recorder: Start returns a nil span and every span method is
// a no-op.
type Tracer struct {
	clock   func() time.Time
	cap     int
	service string
	mu      sync.Mutex
	// spans is a ring once it reaches cap: head indexes the oldest
	// retained span, so eviction is one pointer store instead of a
	// slice copy on every End past the cap.
	spans   []*Span
	head    int
	dropped atomic.Int64
}

// NewTracer returns a tracer for the config.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultTraceCap
	}
	return &Tracer{clock: cfg.Clock, cap: cfg.Cap, service: cfg.Service}
}

// Span is one traced interval. Create with Tracer.Start or Span.Start;
// finish with End. Nil-safe throughout.
type Span struct {
	tr     *Tracer
	name   string
	id     string
	parent string
	// ctx is the span's propagation identity (trace id + own span id);
	// psid is the parent's span id within that trace. Both are derived
	// from structural identity — see tracecontext.go.
	ctx   SpanContext
	psid  string
	start time.Time
	mu    sync.Mutex
	end   time.Time
	attrs []Attr
	ended bool
}

// Start begins a root span. The attrs given here are part of the
// span's identity (its id is "name[k=v;…]"); attach purely descriptive
// attributes afterwards with Span.Attr.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	return t.start(name, "", SpanContext{}, attrs)
}

// StartRemote begins a span as the child of a parent span in another
// process, identified by a propagated context (typically parsed from a
// traceparent header or wire frame). An invalid context degrades to a
// root span. Nil-safe.
func (t *Tracer) StartRemote(name string, parent SpanContext, attrs ...Attr) *Span {
	return t.start(name, "", parent, attrs)
}

func (t *Tracer) start(name, parent string, pctx SpanContext, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	id := name + "["
	for i, a := range attrs {
		if i > 0 {
			id += ";"
		}
		id += a.K + "=" + a.V
	}
	id += "]"
	var ctx SpanContext
	var psid string
	if pctx.Valid() {
		ctx = SpanContext{TraceID: pctx.TraceID, SpanID: spanIDFor(pctx.SpanID, id)}
		psid = pctx.SpanID
	} else {
		ctx = SpanContext{TraceID: traceIDFor(id), SpanID: spanIDFor("", id)}
	}
	return &Span{
		tr:     t,
		name:   name,
		id:     id,
		parent: parent,
		ctx:    ctx,
		psid:   psid,
		start:  t.clock(),
		attrs:  append([]Attr(nil), attrs...),
	}
}

// Start begins a child span. Nil-safe: a child of a nil span is nil.
func (s *Span) Start(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(name, s.id, s.ctx, attrs)
}

// Context returns the span's propagation identity for handing to
// another process. Nil-safe: a nil span yields the invalid context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// Attr attaches a descriptive attribute after Start; it appears in the
// export but not in the span's id.
func (s *Span) Attr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{K: k, V: v})
	s.mu.Unlock()
}

// End finishes the span and hands it to the tracer. Calling End twice
// records the span once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = s.tr.clock()
	s.mu.Unlock()
	t := s.tr
	t.mu.Lock()
	if len(t.spans) < t.cap {
		t.spans = append(t.spans, s)
	} else {
		t.spans[t.head] = s
		t.head = (t.head + 1) % t.cap
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// Len returns the number of retained finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many finished spans the cap evicted.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Reset discards all retained spans (the dropped counter is kept).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.head = 0
	t.mu.Unlock()
}

// RegisterMetrics publishes the tracer's retention state on reg.
func (t *Tracer) RegisterMetrics(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	NewGaugeFunc(reg, "obs_trace_spans", "Finished spans currently retained by the tracer.",
		func() float64 { return float64(t.Len()) })
	NewCounterFunc(reg, "obs_trace_spans_dropped_total", "Finished spans evicted by the retention cap.",
		t.Dropped)
}

// SpanRecord is the NDJSON wire form of one finished span. TID/SID/
// PSID carry the cross-process identity (tracecontext.go); Svc is the
// recording tracer's role. Parent is the in-process structural parent
// id; for a span adopted via StartRemote it is empty and PSID alone
// links the tree.
type SpanRecord struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  string `json:"start"`
	DurNS  int64  `json:"dur_ns"`
	Attrs  []Attr `json:"attrs,omitempty"`
	TID    string `json:"tid,omitempty"`
	SID    string `json:"sid,omitempty"`
	PSID   string `json:"psid,omitempty"`
	Svc    string `json:"svc,omitempty"`
}

// WriteNDJSON exports the retained finished spans, one JSON object per
// line, restricted to the given span names when any are passed. Lines
// are sorted lexicographically — a total order over the span multiset —
// so runs that did the same work under the same clock export
// byte-identical bytes at any worker count. A nil tracer writes
// nothing.
func (t *Tracer) WriteNDJSON(w io.Writer, names ...string) error {
	if t == nil {
		return nil
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()

	lines := make([]string, 0, len(spans))
	for _, s := range spans {
		if len(want) > 0 && !want[s.name] {
			continue
		}
		s.mu.Lock()
		line := SpanRecord{
			Name:   s.name,
			ID:     s.id,
			Parent: s.parent,
			Start:  s.start.UTC().Format(time.RFC3339Nano),
			DurNS:  s.durNS(),
			Attrs:  append([]Attr(nil), s.attrs...),
			TID:    s.ctx.TraceID,
			SID:    s.ctx.SpanID,
			PSID:   s.psid,
			Svc:    t.service,
		}
		s.mu.Unlock()
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		bw.WriteString(l)  //nolint:errcheck // flushed below
		bw.WriteByte('\n') //nolint:errcheck
	}
	return bw.Flush()
}

// durNS is the span duration in nanoseconds; callers hold s.mu.
func (s *Span) durNS() int64 {
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start).Nanoseconds()
}
