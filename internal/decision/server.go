package decision

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
)

// The consentd HTTP surface. Three decision endpoints sit behind a
// load-shedding resilience.HTTPLimiter; /healthz stays outside it so
// orchestration keeps working while traffic is being shed (the same
// split capd uses).
//
//	GET  /decide?tc=S&vendor=N&purpose=P
//	     one decision as JSON: {"allowed":…,"basis":…}
//
//	POST /v1/batch
//	     NDJSON in, NDJSON out, one line per decision. Request lines
//	     are canonical (no spaces, keys in order):
//	         {"t":"<tc-string>","v":<vendor>,"p":<purpose>}
//	         {"v":<vendor>,"p":<purpose>}          # reuses previous t
//	     The sticky "t" mirrors the auction shape — one user's string
//	     asked about many vendors — and keeps the per-line cost to a
//	     few dozen nanoseconds. Response lines are {"b":"C"} with
//	     b ∈ {"N","C","L"} (denied / consent / legitimate interest),
//	     in request order. A line that cannot be answered ends the
//	     batch: a 400 carrying the error while no answer has been
//	     sent, else the answers so far and the end of the stream.
//
//	POST /v1/filter
//	     {"t":"<tc>","purpose":P,"vendors":[…]} →
//	     {"allowed":[…],"checked":K} — the pre-auction vendor filter.
//
//	GET  /healthz
//	     uptime, decision counters, cache and GVL state, limiter.

// ServerConfig wires a decision server.
type ServerConfig struct {
	// Resolver provides pre-resolved GVL tables; nil serves decisions
	// from the string alone.
	Resolver *Resolver
	// Cache sizes the compiled-form cache (zero values take the
	// CacheConfig defaults).
	Cache CacheConfig
	// MaxInFlight bounds the requests served at once (default 256).
	// The limiter sets no deadline: no handler here waits on anything
	// a request context could cancel.
	MaxInFlight int
	// Registry / Tracer attach the obs surface; both optional.
	Registry *obs.Registry
	// Tracer records decision spans.
	Tracer *obs.Tracer
}

// maxBatchBytes caps a /v1/batch request body.
const maxBatchBytes = 8 << 20

// Server answers consent decisions over HTTP.
type Server struct {
	cache    *Cache
	resolver *Resolver
	limiter  *resilience.HTTPLimiter
	tracer   *obs.Tracer
	m        *serverMetrics
	start    time.Time

	decisions atomic.Int64
	requests  atomic.Int64
	errors    atomic.Int64
}

// serverMetrics holds pre-resolved children so the hot path never
// touches the label map.
type serverMetrics struct {
	decisionsBy [3][3]*obs.Counter // [endpoint][basis]
	requestsBy  [3]*obs.Counter
	errorsBy    [3]*obs.Counter
	singleSec   *obs.Histogram
	batchSec    *obs.Histogram
	batchPerReq *obs.Histogram
	filterSec   *obs.Histogram
}

const (
	epSingle = 0
	epBatch  = 1
	epFilter = 2
)

var epNames = [3]string{"single", "batch", "filter"}
var basisNames = [3]string{"none", "consent", "legitimate-interest"}

func newServerMetrics(reg *obs.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{}
	dv := obs.NewCounterVec(reg, "decision_decisions_total",
		"Consent decisions answered, by endpoint and resulting legal basis.", "endpoint", "basis")
	rv := obs.NewCounterVec(reg, "decision_requests_total",
		"Decision API requests served, by endpoint.", "endpoint")
	ev := obs.NewCounterVec(reg, "decision_errors_total",
		"Decision API requests rejected with a client error, by endpoint.", "endpoint")
	for e := 0; e < 3; e++ {
		for b := 0; b < 3; b++ {
			m.decisionsBy[e][b] = dv.With(epNames[e], basisNames[b])
		}
		m.requestsBy[e] = rv.With(epNames[e])
		m.errorsBy[e] = ev.With(epNames[e])
	}
	m.singleSec = obs.NewHistogram(reg, "decision_single_seconds",
		"Per-decision latency of the single-decision endpoint.",
		obs.ExponentialBuckets(1e-6, 4, 12))
	m.batchSec = obs.NewHistogram(reg, "decision_batch_seconds",
		"Per-request latency of the batch endpoint.",
		obs.ExponentialBuckets(1e-5, 4, 12))
	m.batchPerReq = obs.NewHistogram(reg, "decision_batch_decisions",
		"Decisions per batch request.",
		obs.ExponentialBuckets(1, 4, 10))
	m.filterSec = obs.NewHistogram(reg, "decision_filter_seconds",
		"Per-request latency of the vendor-filter endpoint.",
		obs.ExponentialBuckets(1e-6, 4, 12))

	obs.NewCounterFunc(reg, "decision_cache_hits_total",
		"Compiled-form cache hits.", func() int64 { return s.cache.hits.Load() })
	obs.NewCounterFunc(reg, "decision_cache_misses_total",
		"Compiled-form cache misses (each one paid a full decode).", func() int64 { return s.cache.misses.Load() })
	obs.NewCounterFunc(reg, "decision_cache_evictions_total",
		"Compiled forms evicted by the LRU bound.", func() int64 { return s.cache.evictions.Load() })
	obs.NewGaugeFunc(reg, "decision_cache_hit_ratio",
		"Compiled-form cache hit ratio since start.", func() float64 { return s.cache.Stats().HitRatio() })
	obs.NewGaugeFunc(reg, "decision_cache_entries",
		"Compiled forms currently cached.", func() float64 { return float64(s.cache.Stats().Size) })
	if s.resolver != nil {
		obs.NewGaugeFunc(reg, "decision_gvl_versions",
			"GVL versions pre-resolved into serving tables.", func() float64 {
				_, _, n := s.resolver.Versions()
				return float64(n)
			})
	}
	obs.NewCounterFunc(reg, "decision_http_admitted_total",
		"Requests admitted by the decision limiter.", func() int64 { return s.limiter.Stats().Admitted })
	obs.NewCounterFunc(reg, "decision_http_shed_total",
		"Requests shed with 429 by the decision limiter.", func() int64 { return s.limiter.Stats().Shed })
	return m
}

// NewServer builds the decision service.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	s := &Server{
		cache:    NewCache(cfg.Cache),
		resolver: cfg.Resolver,
		tracer:   cfg.Tracer,
		start:    time.Now(),
	}
	s.limiter = resilience.NewHTTPLimiter(resilience.HTTPLimiterConfig{MaxInFlight: cfg.MaxInFlight})
	if cfg.Registry != nil {
		s.m = newServerMetrics(cfg.Registry, s)
	}
	return s
}

// Cache exposes the compiled-form cache (the CLI shares it).
func (s *Server) Cache() *Cache { return s.cache }

// Handler returns the full HTTP surface: decision endpoints behind the
// limiter, /healthz outside it.
func (s *Server) Handler() http.Handler {
	api := http.NewServeMux()
	api.HandleFunc("/decide", s.handleDecide)
	api.HandleFunc("/v1/batch", s.handleBatch)
	api.HandleFunc("/v1/filter", s.handleFilter)
	limited := s.limiter.Wrap(api)
	outer := http.NewServeMux()
	outer.HandleFunc("/healthz", s.handleHealthz)
	outer.Handle("/", limited)
	return outer
}

// table resolves the serving table for a compiled string.
func (s *Server) table(c *Compiled) *VendorTable {
	if s.resolver == nil {
		return nil
	}
	return s.resolver.Table(c.VendorListVersion)
}

func (s *Server) clientErr(w http.ResponseWriter, ep int, code int, msg string) {
	s.countErr(ep)
	http.Error(w, msg, code)
}

// countErr counts a request the endpoint could not answer in full.
func (s *Server) countErr(ep int) {
	s.errors.Add(1)
	if s.m != nil {
		s.m.errorsBy[ep].Inc()
	}
}

// decideResponse is the single-decision JSON shape.
type decideResponse struct {
	Allowed bool   `json:"allowed"`
	Basis   string `json:"basis"`
	// WireVersion is the consent string's wire format (1 or 2).
	WireVersion int `json:"wireVersion"`
	// VendorListVersion is the version stamped on the string;
	// GVLResolved is the table version it resolved to (0 = none, the
	// declaration check was skipped).
	VendorListVersion int `json:"vendorListVersion"`
	GVLResolved       int `json:"gvlResolved"`
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	if s.m != nil {
		s.m.requestsBy[epSingle].Inc()
	}
	q := r.URL.Query()
	tc := q.Get("tc")
	vendor, err1 := strconv.Atoi(q.Get("vendor"))
	purpose, err2 := strconv.Atoi(q.Get("purpose"))
	if tc == "" || err1 != nil || err2 != nil {
		s.clientErr(w, epSingle, http.StatusBadRequest, "need tc, vendor and purpose parameters")
		return
	}
	c, err := s.cache.Get(tc)
	if err != nil {
		s.clientErr(w, epSingle, http.StatusBadRequest, "bad consent string: "+err.Error())
		return
	}
	var sp *obs.Span
	if s.tracer != nil {
		sp = s.tracer.Start("decision.single")
	}
	t := s.table(c)
	basis := Decide(c, t, vendor, purpose)
	s.decisions.Add(1)
	if s.m != nil {
		s.m.decisionsBy[epSingle][basis].Inc()
		s.m.singleSec.Observe(time.Since(start).Seconds())
	}
	if sp != nil {
		sp.Attr("basis", basis.String())
		sp.End()
	}
	resp := decideResponse{
		Allowed:           basis.Allowed(),
		Basis:             basis.String(),
		WireVersion:       c.WireVersion,
		VendorListVersion: c.VendorListVersion,
	}
	if t != nil {
		resp.GVLResolved = t.Version
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// Pre-rendered batch response lines, indexed by Basis.
var batchAnswers = [3][]byte{
	[]byte("{\"b\":\"N\"}\n"),
	[]byte("{\"b\":\"C\"}\n"),
	[]byte("{\"b\":\"L\"}\n"),
}

// BatchAnswerLen is the byte length of one batch response line; the
// response body is exactly n·BatchAnswerLen bytes for n decisions.
const BatchAnswerLen = 10

// batchAnswerOffset is where the basis letter sits in a response line.
const batchAnswerOffset = 6

// batchReaders and batchWriters hold the batch endpoint's 64 KiB
// line and answer buffers between requests. Only the handler reads or
// writes them, and no line slice outlives it (GetBytes copies a key it
// keeps), so each goes back reset to nil when the handler returns and
// never pins a request body or a ResponseWriter.
var (
	batchReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}
	batchWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}
)

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	if s.m != nil {
		s.m.requestsBy[epBatch].Inc()
	}
	if r.Method != http.MethodPost {
		s.clientErr(w, epBatch, http.StatusMethodNotAllowed, "POST NDJSON decision lines")
		return
	}
	var sp *obs.Span
	if s.tracer != nil {
		// A fleet pusher's Traceparent header stitches the batch span
		// into the caller's trace; absent or malformed headers degrade
		// to a root span.
		pctx, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		sp = s.tracer.StartRemote("decision.batch", pctx)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Answers stream while lines are still being read. Without this an
	// HTTP/1 server discards the unread body when the first answers go
	// out, and a batch of more lines than the writer holds is cut short.
	// A writer that cannot switch (HTTP/2's) never discards.
	_ = http.NewResponseController(w).EnableFullDuplex()
	br := batchReaders.Get().(*bufio.Reader)
	bw := batchWriters.Get().(*bufio.Writer)
	br.Reset(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	bw.Reset(w)

	n, err := s.answerBatch(br, bw)
	// Every answer is still in bw until it first fills; only then has
	// the client seen a status line.
	unsent := int64(bw.Buffered()) == n*BatchAnswerLen
	switch {
	case err == nil:
		if unsent {
			// The whole answer is known: net/http sends it without
			// chunked framing.
			w.Header().Set("Content-Length", strconv.FormatInt(n*BatchAnswerLen, 10))
		}
		bw.Flush()
	case unsent:
		// Nothing has reached the client: drop the answers and send a
		// clean 400 carrying the error.
		bw.Reset(nil)
		s.clientErr(w, epBatch, http.StatusBadRequest, err.Error())
	default:
		// The status is sent: end the stream after the answered prefix,
		// so the client sees fewer answers than lines.
		bw.Flush()
		s.countErr(epBatch)
	}
	br.Reset(nil)
	bw.Reset(nil)
	batchReaders.Put(br)
	batchWriters.Put(bw)

	s.decisions.Add(n)
	if s.m != nil {
		s.m.batchSec.Observe(time.Since(start).Seconds())
		s.m.batchPerReq.Observe(float64(n))
	}
	if sp != nil {
		if err != nil {
			sp.Attr("error", err.Error())
		}
		sp.Attr("decisions", strconv.FormatInt(n, 10))
		sp.End()
	}
}

// answerBatch answers br's lines into bw in order until the body ends
// or a line cannot be answered. It returns how many it answered and
// the error that stopped it, nil at the end of the body.
func (s *Server) answerBatch(br *bufio.Reader, bw *bufio.Writer) (int64, error) {
	var (
		cur  *Compiled // sticky consent string
		curT *VendorTable
		n    int64
	)
	for {
		line, err := br.ReadSlice('\n')
		if err == io.EOF && len(line) == 0 {
			return n, nil
		}
		if err != nil && err != io.EOF {
			// Oversized line or transport error.
			return n, fmt.Errorf("batch line unreadable: %w", err)
		}
		if k := len(line); k > 0 && line[k-1] == '\n' {
			line = line[:k-1]
		}
		if k := len(line); k > 0 && line[k-1] == '\r' {
			line = line[:k-1]
		}
		if len(line) == 0 {
			continue
		}
		tc, vendor, purpose, err := parseBatchLine(line)
		if err != nil {
			return n, err
		}
		if tc != nil {
			c, err := s.cache.GetBytes(tc)
			if err != nil {
				return n, fmt.Errorf("bad consent string: %w", err)
			}
			cur, curT = c, s.table(c)
		}
		if cur == nil {
			return n, fmt.Errorf("first batch line must carry a consent string")
		}
		basis := Decide(cur, curT, vendor, purpose)
		if s.m != nil {
			s.m.decisionsBy[epBatch][basis].Inc()
		}
		bw.Write(batchAnswers[basis])
		n++
	}
}

// parseBatchLine parses one canonical batch line. tc is nil when the
// line reuses the previous string. The grammar is deliberately rigid —
// no whitespace, keys in order, integers in JSON's form without sign
// or leading zeros and at most 2^31−1 — so the hot path is a byte
// scan, not a JSON parse. The fixed parts are compared by index: the
// compiler turns each into a few loads, not a memequal call.
func parseBatchLine(line []byte) (tc []byte, vendor, purpose int, err error) {
	rest := line
	if len(rest) < 2 || rest[0] != '{' || rest[1] != '"' {
		return nil, 0, 0, fmt.Errorf("decision: batch line must be a canonical JSON object")
	}
	rest = rest[2:]
	if len(rest) >= 4 && string(rest[:4]) == `t":"` {
		rest = rest[4:]
		end := bytes.IndexByte(rest, '"')
		if end < 0 {
			return nil, 0, 0, fmt.Errorf("decision: unterminated consent string in batch line")
		}
		tc = rest[:end]
		for _, b := range tc {
			if b < 0x20 || b == '\\' {
				return nil, 0, 0, fmt.Errorf("decision: consent string contains invalid byte %q", b)
			}
		}
		rest = rest[end+1:]
		if len(rest) < 2 || rest[0] != ',' || rest[1] != '"' {
			return nil, 0, 0, fmt.Errorf("decision: expected vendor after consent string")
		}
		rest = rest[2:]
	}
	if len(rest) < 3 || string(rest[:3]) != `v":` {
		return nil, 0, 0, fmt.Errorf("decision: batch line missing vendor")
	}
	rest = rest[3:]
	vendor, rest, err = parseInt(rest)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(rest) < 5 || string(rest[:5]) != `,"p":` {
		return nil, 0, 0, fmt.Errorf("decision: batch line missing purpose")
	}
	rest = rest[5:]
	purpose, rest, err = parseInt(rest)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(rest) != 1 || rest[0] != '}' {
		return nil, 0, 0, fmt.Errorf("decision: trailing bytes in batch line")
	}
	return tc, vendor, purpose, nil
}

// parseInt reads a JSON non-negative integer no larger than 2^31−1.
func parseInt(b []byte) (int, []byte, error) {
	n, i := 0, 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		d := int(b[i] - '0')
		if n > (math.MaxInt32-d)/10 {
			return 0, nil, fmt.Errorf("decision: integer out of range")
		}
		n = n*10 + d
	}
	if i == 0 {
		return 0, nil, fmt.Errorf("decision: expected integer")
	}
	if i > 1 && b[0] == '0' {
		return 0, nil, fmt.Errorf("decision: integer with a leading zero")
	}
	return n, b[i:], nil
}

// filterRequest / filterResponse are the vendor-filter wire shapes.
type filterRequest struct {
	TC      string `json:"t"`
	Purpose int    `json:"purpose"`
	Vendors []int  `json:"vendors"`
}

type filterResponse struct {
	Allowed []int `json:"allowed"`
	Checked int   `json:"checked"`
}

// maxFilterVendors bounds one filter request.
const maxFilterVendors = 65536

func (s *Server) handleFilter(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	if s.m != nil {
		s.m.requestsBy[epFilter].Inc()
	}
	if r.Method != http.MethodPost {
		s.clientErr(w, epFilter, http.StatusMethodNotAllowed, "POST a filter request")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req filterRequest
	if err := dec.Decode(&req); err != nil {
		s.clientErr(w, epFilter, http.StatusBadRequest, "malformed filter request: "+err.Error())
		return
	}
	if req.TC == "" || len(req.Vendors) == 0 || len(req.Vendors) > maxFilterVendors {
		s.clientErr(w, epFilter, http.StatusBadRequest, "need t and 1..65536 vendors")
		return
	}
	c, err := s.cache.Get(req.TC)
	if err != nil {
		s.clientErr(w, epFilter, http.StatusBadRequest, "bad consent string: "+err.Error())
		return
	}
	var sp *obs.Span
	if s.tracer != nil {
		sp = s.tracer.Start("decision.filter")
	}
	t := s.table(c)
	allowed := make([]int, 0, len(req.Vendors))
	if s.m == nil {
		allowed = FilterVendors(c, t, req.Vendors, req.Purpose, allowed)
	} else {
		for _, v := range req.Vendors {
			basis := Decide(c, t, v, req.Purpose)
			s.m.decisionsBy[epFilter][basis].Inc()
			if basis.Allowed() {
				allowed = append(allowed, v)
			}
		}
	}
	s.decisions.Add(int64(len(req.Vendors)))
	if s.m != nil {
		s.m.filterSec.Observe(time.Since(start).Seconds())
	}
	if sp != nil {
		sp.Attr("checked", strconv.Itoa(len(req.Vendors)))
		sp.Attr("allowed", strconv.Itoa(len(allowed)))
		sp.End()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(filterResponse{Allowed: allowed, Checked: len(req.Vendors)})
}

// Health is the /healthz document.
type Health struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Decisions     int64                   `json:"decisions"`
	Requests      int64                   `json:"requests"`
	Errors        int64                   `json:"errors"`
	Cache         CacheStats              `json:"cache"`
	CacheHitRatio float64                 `json:"cache_hit_ratio"`
	GVL           GVLHealth               `json:"gvl"`
	Limiter       resilience.LimiterStats `json:"limiter"`
	// Telemetry is the capd-style digest (uptime + slowest batch-latency
	// buckets), present only when the server runs with metrics.
	Telemetry *obs.TelemetrySummary `json:"telemetry,omitempty"`
}

// GVLHealth summarizes the resolver.
type GVLHealth struct {
	Versions   int `json:"versions"`
	MinVersion int `json:"min_version"`
	MaxVersion int `json:"max_version"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.cache.Stats()
	h := Health{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Decisions:     s.decisions.Load(),
		Requests:      s.requests.Load(),
		Errors:        s.errors.Load(),
		Cache:         st,
		CacheHitRatio: st.HitRatio(),
		Limiter:       s.limiter.Stats(),
	}
	if s.resolver != nil {
		min, max, n := s.resolver.Versions()
		h.GVL = GVLHealth{Versions: n, MinVersion: min, MaxVersion: max}
	}
	if s.m != nil {
		h.Telemetry = obs.Summarize(time.Since(s.start), s.m.batchSec.Snapshot(), 3)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}
