package replica

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/obs"
	"repro/internal/resilience/chaos"
	"repro/internal/ring"
	"repro/internal/simtime"
)

// readCapture fabricates a capture for the read-path tests: seven
// domains (so an 8-segment store keeps an empty segment), three
// vantages, failures, and a repeated request host so the distinct-host
// posting lists are exercised.
func readCapture(i int) *capture.Capture {
	dom := fmt.Sprintf("site%d.example", i%7)
	c := &capture.Capture{
		SeedURL:     fmt.Sprintf("https://%s/p/%d", dom, i),
		FinalURL:    fmt.Sprintf("https://%s/p/%d", dom, i),
		FinalDomain: dom,
		Day:         simtime.Day(i / 7 % 7),
		Vantage:     []capture.Vantage{capture.USCloud, capture.EUCloud, capture.EUUniversity}[i%3],
		Status:      200,
		Requests: []capture.Request{
			{Host: "www." + dom, Path: "/", Status: 200, BytesRaw: 900 + i, BytesCompressed: 300 + i},
			{Host: fmt.Sprintf("cmp%d.example", i%4), Path: "/c.js", Status: 200, BytesRaw: 90 + i, BytesCompressed: 80 + i},
		},
	}
	if i%5 == 0 {
		c.Requests = append(c.Requests, capture.Request{Host: "cmp0.example", Path: "/again.js", Status: 200})
	}
	if i%9 == 0 {
		c.Failed, c.Error = true, "connection refused"
	}
	return c
}

// readTransport watches what a Reader holds open on the storage nodes:
// /query and /count exchanges from request to body close, per node,
// and the bytes read from their bodies.
type readTransport struct {
	next http.RoundTripper

	mu      sync.Mutex
	open    map[string]int
	maxOpen int // the most exchanges ever open on one node at once
	bytes   atomic.Int64
}

func newReadTransport() *readTransport {
	return &readTransport{next: &http.Transport{}, open: make(map[string]int)}
}

func (t *readTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/query" && req.URL.Path != "/count" {
		return t.next.RoundTrip(req)
	}
	host := req.URL.Host
	t.mu.Lock()
	t.open[host]++
	if t.open[host] > t.maxOpen {
		t.maxOpen = t.open[host]
	}
	t.mu.Unlock()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.closed(host)
		return nil, err
	}
	resp.Body = &trackedBody{ReadCloser: resp.Body, t: t, host: host}
	return resp, nil
}

func (t *readTransport) closed(host string) {
	t.mu.Lock()
	t.open[host]--
	t.mu.Unlock()
}

func (t *readTransport) openNow() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, o := range t.open {
		n += o
	}
	return n
}

type trackedBody struct {
	io.ReadCloser
	t    *readTransport
	host string
	once sync.Once
}

func (b *trackedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.t.bytes.Add(int64(n))
	return n, err
}

func (b *trackedBody) Close() error {
	b.once.Do(func() { b.t.closed(b.host) })
	return b.ReadCloser.Close()
}

// tear cuts a node's next /query response after some rows and kills
// the node, the way a process dying mid-stream would.
type tear struct {
	next  http.Handler
	gate  *chaos.Gate
	after atomic.Int64 // rows to let through before the cut; negative: off
	fired atomic.Int64
}

func (t *tear) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/query" || t.after.Load() < 0 {
		t.next.ServeHTTP(w, r)
		return
	}
	t.next.ServeHTTP(&tearWriter{ResponseWriter: w, t: t}, r)
}

// tearWriter relies on the node handler writing one record per Write.
type tearWriter struct {
	http.ResponseWriter
	t    *tear
	rows int64
}

func (w *tearWriter) Write(p []byte) (int, error) {
	if after := w.t.after.Load(); after >= 0 && w.rows >= after {
		w.t.after.Store(-1)
		w.t.fired.Add(1)
		w.t.gate.Kill()
		w.ResponseWriter.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
	w.rows++
	return w.ResponseWriter.Write(p)
}

// readCluster is a ring whose node reads can be watched and torn.
type readCluster struct {
	*cluster
	tr    *readTransport
	tears map[string]*tear
}

func newReadCluster(t *testing.T, nodes, shards int, mut func(*Config)) *readCluster {
	t.Helper()
	rc := &readCluster{tr: newReadTransport(), tears: make(map[string]*tear)}
	rc.cluster = newWrappedCluster(t, nodes, shards, func(cfg *Config) {
		cfg.HTTP = &http.Client{Transport: rc.tr, Timeout: cfg.NodeTimeout}
		if mut != nil {
			mut(cfg)
		}
	}, func(name string, h http.Handler) http.Handler {
		tr := &tear{next: h}
		tr.after.Store(-1)
		rc.tears[name] = tr
		return tr
	})
	for name, tr := range rc.tears {
		tr.gate = rc.gates[name]
	}
	return rc
}

// push commits caps through the ring in ordered batches of 8.
func (c *cluster) push(t *testing.T, at int, caps []*capture.Capture) {
	t.Helper()
	for i := 0; i < len(caps); i += 8 {
		end := min(i+8, len(caps))
		if err := c.pushOrdered(int64(at+i), int64(end-i), caps[i:end], nil); err != nil {
			t.Fatal(err)
		}
	}
}

// linear is the reference answer: the corpus walked in canonical store
// order — segment by segment, commit order within — through
// Query.Match, encoded, with the pagination applied. It also returns
// the unpaginated row count.
func linear(t *testing.T, caps []*capture.Capture, shards int, q capturedb.Query, limit, offset int) (page []byte, rows int) {
	t.Helper()
	var buf bytes.Buffer
	sent := 0
	for s := 0; s < shards; s++ {
		for _, c := range caps {
			if capstore.ShardOf(c.FinalDomain, shards) != s || !q.Match(c) {
				continue
			}
			rows++
			if rows <= offset || (limit > 0 && sent >= limit) {
				continue
			}
			line, err := capturedb.Encode(c)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			sent++
		}
	}
	return buf.Bytes(), rows
}

// collect renders a query's answer as encoded rows. paginate applies
// limit and offset here, for sources that do not.
func collect(t *testing.T, limit, offset int, paginate bool, run func(fn func(*capture.Capture) bool) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	seen, sent := 0, 0
	err := run(func(c *capture.Capture) bool {
		seen++
		if paginate && seen <= offset {
			return true
		}
		line, err := capturedb.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		sent++
		return !paginate || limit == 0 || sent < limit
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readQuery is one drawn query with its pagination.
type readQuery struct {
	q             capturedb.Query
	limit, offset int
}

// drawQueries draws n queries over every combination the planner
// distinguishes: domain / host / both / neither, present and absent
// keys, a domain whose segment holds nothing, every shape of day
// bound, vantages, failed captures, and pagination.
func drawQueries(n int, emptySegDomain string) []readQuery {
	r := rand.New(rand.NewSource(15))
	domains := []string{"site0.example", "site3.example", "site6.example", "absent.example", emptySegDomain}
	hosts := []string{"cmp0.example", "cmp1.example", "cmp3.example", "www.site3.example", "absent.example"}
	vantages := []string{"", "", "us-cloud", "eu-university", "mars"}
	out := make([]readQuery, 0, n)
	for len(out) < n {
		var rq readQuery
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			rq.q.Domain = domains[r.Intn(len(domains))]
		case 4, 5, 6:
			rq.q.RequestHost = hosts[r.Intn(len(hosts))]
		case 7:
			rq.q.Domain = domains[r.Intn(len(domains))]
			rq.q.RequestHost = hosts[r.Intn(len(hosts))]
		}
		switch r.Intn(6) {
		case 0:
			rq.q.From = simtime.Day(r.Intn(7))
		case 1:
			rq.q.To = simtime.Day(1 + r.Intn(6))
		case 2:
			rq.q.From = simtime.Day(r.Intn(4))
			rq.q.To = rq.q.From + simtime.Day(r.Intn(4))
			rq.q.HasTo = true
		case 3:
			rq.q.HasTo = true // day 0 only
		}
		rq.q.Vantage = vantages[r.Intn(len(vantages))]
		rq.q.IncludeFailed = r.Intn(2) == 0
		if r.Intn(4) == 0 {
			rq.limit, rq.offset = r.Intn(40), r.Intn(30)
		}
		out = append(out, rq)
	}
	return out
}

// TestReadPlanDifferential is the read planner's contract, written
// once: over a 3-node R=2 ring whose segments are part pack, part
// tail, every drawn query answered by the Reader is byte-identical to
// the single-node store's answer and to a linear Match scan, and every
// way of counting agrees with the row count. Then the same queries
// again while nodes die mid-stream.
func TestReadPlanDifferential(t *testing.T) {
	const (
		shards  = 8
		total   = 420
		nQuery  = 200
		tearRow = 2
	)
	reg := obs.NewRegistry()
	c := newReadCluster(t, 3, shards, func(cfg *Config) { cfg.Registry = reg })
	caps := make([]*capture.Capture, total)
	for i := range caps {
		caps[i] = readCapture(i)
	}
	// Packs and tails: compact every node after two thirds of the
	// corpus, then push the rest.
	c.push(t, 0, caps[:280])
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, st := range c.stores {
		if _, err := st.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	c.push(t, 280, caps[280:])
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, st := range c.stores {
		packed, tail := 0, 0
		for _, sh := range st.Stats().Shards {
			packed += sh.Packs
			tail += sh.TailRecords
		}
		if packed == 0 || tail == 0 {
			t.Fatalf("%s holds %d packs and %d tail records; the test wants both", c.names[i], packed, tail)
		}
	}

	dir, _ := baseline(t, caps, shards)
	single, err := capstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	front := httptest.NewServer(Handler(c.w))
	defer front.Close()
	ringClient := capstore.NewClient(front.URL)

	// A domain that hashes to a segment holding nothing.
	filled := make(map[int]bool)
	for _, cp := range caps {
		filled[capstore.ShardOf(cp.FinalDomain, shards)] = true
	}
	emptySegDomain := ""
	for i := 0; emptySegDomain == ""; i++ {
		if d := fmt.Sprintf("nowhere%d.example", i); !filled[capstore.ShardOf(d, shards)] {
			emptySegDomain = d
		}
	}
	queries := drawQueries(nQuery, emptySegDomain)

	rd := c.w.Reader()
	nonEmpty, indexOnly := 0, 0
	for _, rq := range queries {
		q := rq.q
		want, rows := linear(t, caps, shards, q, rq.limit, rq.offset)
		if rows > 0 {
			nonEmpty++
		}
		got := collect(t, rq.limit, rq.offset, false, func(fn func(*capture.Capture) bool) error {
			return rd.Query(q, rq.limit, rq.offset, fn)
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: Reader.Query gave %d bytes, linear scan %d", rq, len(got), len(want))
		}
		got = collect(t, rq.limit, rq.offset, true, func(fn func(*capture.Capture) bool) error {
			return single.Query(q, fn)
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: single-node Store.Query gave %d bytes, linear scan %d", rq, len(got), len(want))
		}

		if n, err := rd.Count(q); err != nil || n != rows {
			t.Fatalf("%+v: Reader.Count = %d, %v; want %d", q, n, err, rows)
		}
		if n, err := ringClient.Count(q); err != nil || n != rows {
			t.Fatalf("%+v: ring /count = %d, %v; want %d", q, n, err, rows)
		}
		nodeSum := 0
		for s := 0; s < shards; s++ {
			n, err := rd.candidates(s)[0].cl.CountShard(context.Background(), s, q)
			if err != nil {
				t.Fatal(err)
			}
			nodeSum += n
		}
		if nodeSum != rows {
			t.Fatalf("%+v: node /count?shard=N sums to %d, want %d", q, nodeSum, rows)
		}
		// The single store answers a covered count from its indexes
		// alone; either way it is the row count.
		before := single.Stats().RowsScanned
		if n, err := single.Count(q); err != nil || n != rows {
			t.Fatalf("%+v: Store.Count = %d, %v; want %d", q, n, err, rows)
		}
		covered := q.Vantage == "" && (q.Domain == "" || q.RequestHost == "")
		if read := single.Stats().RowsScanned - before; covered && read != 0 {
			t.Fatalf("%+v: index-only count read %d records", q, read)
		} else if covered {
			indexOnly++
		}
	}
	if nonEmpty < nQuery/3 || indexOnly < nQuery/4 {
		t.Fatalf("of %d queries only %d match anything and %d are index-only counts: the draw no longer covers the planner", nQuery, nonEmpty, indexOnly)
	}
	if c.tr.maxOpen != 1 {
		t.Errorf("a read held %d exchanges open on one node at once, want at most 1", c.tr.maxOpen)
	}

	// Again with a node dying mid-stream under every query that streams
	// enough rows from it: the victim rotates, is cut after tearRow
	// rows, stays dead for the rest of the query and returns after it.
	failovers := obs.NewCounter(reg, "repl_read_failovers_total", "")
	before := failovers.Value()
	var torn, tornIndexed int64
	for i, rq := range queries {
		q := rq.q
		victim := c.names[i%len(c.names)]
		c.tears[victim].after.Store(tearRow)
		want, _ := linear(t, caps, shards, q, rq.limit, rq.offset)
		got := collect(t, rq.limit, rq.offset, false, func(fn func(*capture.Capture) bool) error {
			return rd.Query(q, rq.limit, rq.offset, fn)
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v with %s dying mid-stream: %d bytes, want %d", rq, victim, len(got), len(want))
		}
		if fired := c.tears[victim].fired.Swap(0); fired > 0 {
			torn += fired
			if q.Domain != "" || q.RequestHost != "" {
				tornIndexed += fired
			}
		}
		c.tears[victim].after.Store(-1)
		c.gates[victim].Revive()
	}
	if torn == 0 || tornIndexed == 0 || failovers.Value() == before {
		t.Fatalf("%d streams torn (%d on an indexed path), %d failovers: the resume path went untested",
			torn, tornIndexed, failovers.Value()-before)
	}
	if c.tr.maxOpen != 1 {
		t.Errorf("with failovers a read held %d exchanges open on one node at once, want at most 1", c.tr.maxOpen)
	}
	if n := c.tr.openNow(); n != 0 {
		t.Errorf("%d node exchanges still open after the last read", n)
	}

	// The ring's read-side families saw every plan.
	var exp bytes.Buffer
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(exp.Bytes())); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
	for _, plan := range planNames {
		for _, fam := range []string{"repl_read_seconds_count", "repl_read_segments_total"} {
			series := fmt.Sprintf("%s{plan=%q} ", fam, plan)
			if i := strings.Index(exp.String(), series); i < 0 || strings.HasPrefix(exp.String()[i+len(series):], "0\n") {
				t.Errorf("exposition has no samples for %s", series)
			}
		}
	}
}

// TestReadsDuringIngestAndCompaction (run under -race): while a writer
// pushes the rest of the corpus and every node compacts live, each
// answer lies between the answer over the preloaded prefix and the
// answer over the whole corpus, and every row matches its query.
func TestReadsDuringIngestAndCompaction(t *testing.T) {
	const (
		shards  = 8
		total   = 720
		preload = 240
	)
	c := newReadCluster(t, 3, shards, nil)
	caps := make([]*capture.Capture, total)
	for i := range caps {
		caps[i] = readCapture(i)
	}
	c.push(t, 0, caps[:preload])
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, st := range c.stores {
		comp := st.StartCompactor(capstore.CompactConfig{MinTailBytes: 4 << 10, Interval: 2 * time.Millisecond})
		defer comp.Close()
	}
	queries := []capturedb.Query{
		{Domain: "site3.example"},
		{RequestHost: "cmp0.example", IncludeFailed: true},
		{RequestHost: "cmp1.example", From: 2, To: 5},
		{Vantage: "eu-cloud"},
		{IncludeFailed: true},
	}
	lo, hi := make([]int, len(queries)), make([]int, len(queries))
	for i, q := range queries {
		_, lo[i] = linear(t, caps[:preload], shards, q, 0, 0)
		_, hi[i] = linear(t, caps, shards, q, 0, 0)
	}

	pushed := make(chan error, 1)
	go func() {
		for at := preload; at < total; at += 8 {
			if err := c.pushOrdered(int64(at), 8, caps[at:at+8], nil); err != nil {
				pushed <- err
				return
			}
		}
		pushed <- nil
	}()
	rd := c.w.Reader()
	for round := 0; ; round++ {
		finished := false
		select {
		case err := <-pushed:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		for i, q := range queries {
			rows := 0
			err := rd.Query(q, 0, 0, func(cp *capture.Capture) bool {
				if !q.Match(cp) {
					t.Errorf("%+v returned a capture that does not match: %s day %d", q, cp.FinalURL, cp.Day)
				}
				rows++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			n, err := rd.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			for what, got := range map[string]int{"Query": rows, "Count": n} {
				if got < lo[i] || got > hi[i] {
					t.Fatalf("round %d, %+v: %s answered %d, outside [%d, %d]", round, q, what, got, lo[i], hi[i])
				}
			}
		}
		if finished {
			break
		}
	}
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		if n, err := rd.Count(q); err != nil || n != hi[i] {
			t.Errorf("%+v after convergence: count %d, %v; want %d", q, n, err, hi[i])
		}
	}
}

// standStill polls read until it has returned the same value twenty
// times in a row — goroutine and connection teardown, and streams
// running ahead into their buffers, finish a little after the call that
// caused them — and returns that value.
func standStill(read func() int64) int64 {
	last, still := read(), 0
	for deadline := time.Now().Add(5 * time.Second); still < 20 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if now := read(); now == last {
			still++
		} else {
			last, still = now, 0
		}
	}
	return last
}

// TestEarlyStopLeavesNothingBehind: a caller that stops a fan-out
// after a few rows gets its return only once every stream is closed,
// and no goroutine of the read outlives it.
func TestEarlyStopLeavesNothingBehind(t *testing.T) {
	const shards = 8
	c := newReadCluster(t, 3, shards, nil)
	caps := make([]*capture.Capture, 2400)
	for i := range caps {
		caps[i] = readCapture(i)
	}
	c.push(t, 0, caps)
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	rd := c.w.Reader()
	goroutines := func() int64 {
		return standStill(func() int64 {
			c.tr.next.(*http.Transport).CloseIdleConnections()
			return int64(runtime.NumGoroutine())
		})
	}
	stopAfter := func(n int) {
		rows := 0
		if err := rd.Query(capturedb.Query{IncludeFailed: true}, 0, 0, func(*capture.Capture) bool {
			rows++
			return rows < n
		}); err != nil {
			t.Fatal(err)
		}
		if open := c.tr.openNow(); open != 0 {
			t.Fatalf("stopped after %d rows: %d response bodies still open on return", n, open)
		}
	}
	stopAfter(1) // warm-up: whatever a first read starts for good is in the baseline
	base := goroutines()
	for _, n := range []int{1, 5, rowBudget + 10} {
		stopAfter(n)
	}
	// With limit the stop comes from the Reader, not the caller.
	if err := rd.Query(capturedb.Query{}, 3, 1, func(*capture.Capture) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if after := goroutines(); after > base {
		t.Errorf("%d goroutines after the early stops, %d before", after, base)
	}
}

// TestFanoutMemoryBounded: against a consumer that stalls on the first
// row, the streams of a sweep stop reading once each holds its row
// budget, however large the segments are.
func TestFanoutMemoryBounded(t *testing.T) {
	const (
		shards = 2
		total  = 24 * rowBudget
	)
	c := newReadCluster(t, 3, shards, nil)
	caps := make([]*capture.Capture, total)
	var segBytes [shards]int64
	var maxRow int64
	for i := range caps {
		caps[i] = readCapture(i)
		line, err := capturedb.Encode(caps[i])
		if err != nil {
			t.Fatal(err)
		}
		segBytes[capstore.ShardOf(caps[i].FinalDomain, shards)] += int64(len(line))
		maxRow = max(maxRow, int64(len(line)))
	}
	c.push(t, 0, caps)
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// What one stalled stream may have pulled off its connection: the
	// budget, the row it is blocked on, and the record reader's buffer.
	perStream := (rowBudget+1)*maxRow + 1<<16
	for s, b := range segBytes {
		if b < 3*perStream {
			t.Fatalf("segment %d is %d bytes, too small next to the %d-byte bound to show it", s, b, perStream)
		}
	}

	c.tr.bytes.Store(0)
	first := true
	got := collect(t, 0, 0, false, func(fn func(*capture.Capture) bool) error {
		return c.w.Reader().Query(capturedb.Query{IncludeFailed: true}, 0, 0, func(cp *capture.Capture) bool {
			if first {
				// Stall: the streams run ahead until their buffers are
				// full, then the byte count stands still.
				first = false
				if held := standStill(c.tr.bytes.Load); held > shards*perStream {
					t.Errorf("stalled sweep read %d bytes ahead, bound is %d (%d streams × %d)", held, shards*perStream, shards, perStream)
				}
			}
			return fn(cp)
		})
	})
	want, _ := linear(t, caps, shards, capturedb.Query{IncludeFailed: true}, 0, 0)
	if !bytes.Equal(got, want) {
		t.Errorf("sweep after the stall: %d bytes, want %d", len(got), len(want))
	}
}

// TestFailoverTakesLaneFromPrefetcher: segment 0's replica dies
// mid-stream while the replica it must fail over to is streaming a
// later segment whose full buffer waits for the merge. The later
// stream has to give the lane up (and resume by offset afterwards);
// if it kept it, segment 0 could only get on once the node timeout cut
// the later stream, which would show as extra failovers.
func TestFailoverTakesLaneFromPrefetcher(t *testing.T) {
	const (
		shards = 3
		total  = 12 * rowBudget
	)
	names := []string{"node-0", "node-1", "node-2"}
	// A placement where segment 0's second replica is the first choice
	// of a later segment.
	seed := uint64(0)
	for try := uint64(1); seed == 0; try++ {
		rg, err := ring.New(ring.Config{Seed: try, Nodes: names, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		if spare := rg.PlaceSegment(0)[1]; spare == rg.PlaceSegment(1)[0] || spare == rg.PlaceSegment(2)[0] {
			seed = try
		}
	}
	reg := obs.NewRegistry()
	c := newReadCluster(t, 3, shards, func(cfg *Config) { cfg.Seed, cfg.Registry = seed, reg })
	caps := make([]*capture.Capture, total)
	rows := make([]int, shards)
	for i := range caps {
		caps[i] = readCapture(i)
		rows[capstore.ShardOf(caps[i].FinalDomain, shards)]++
	}
	for s, n := range rows {
		if n < rowBudget+60 {
			t.Fatalf("segment %d holds %d rows; every stream must be able to fill its %d-row buffer", s, n, rowBudget)
		}
	}
	c.push(t, 0, caps)
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	rd := c.w.Reader()
	victim := rd.candidates(0)[0].name
	c.tears[victim].after.Store(rowBudget + 50)
	failovers := obs.NewCounter(reg, "repl_read_failovers_total", "")
	first := true
	got := collect(t, 0, 0, false, func(fn func(*capture.Capture) bool) error {
		return rd.Query(capturedb.Query{IncludeFailed: true}, 0, 0, func(cp *capture.Capture) bool {
			if first {
				// Hold the merge until every stream has filled its buffer.
				first = false
				standStill(c.tr.bytes.Load)
			}
			return fn(cp)
		})
	})
	want, _ := linear(t, caps, shards, capturedb.Query{IncludeFailed: true}, 0, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep: %d bytes, want %d", len(got), len(want))
	}
	if c.tears[victim].fired.Load() != 1 {
		t.Fatal("the victim's stream was never torn")
	}
	// The torn segment fails over once; so does every later segment the
	// dead node was first choice for. A stream cut by the node timeout
	// would add to that.
	wantFailovers := int64(0)
	for s := 0; s < shards; s++ {
		if rd.candidates(s)[0].name == victim {
			wantFailovers++
		}
	}
	if n := failovers.Value(); n != wantFailovers {
		t.Errorf("%d failovers, want %d", n, wantFailovers)
	}
	if c.tr.maxOpen != 1 {
		t.Errorf("a read held %d exchanges open on one node at once, want at most 1", c.tr.maxOpen)
	}
}
