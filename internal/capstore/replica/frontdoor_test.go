package replica

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
)

// reply is what one request was answered.
type reply struct {
	Status  int
	Header  http.Header
	Body    string
	Aborted bool // the handler cut the connection (http.ErrAbortHandler)
}

// cancelOnWrite cancels the request's context as the first body bytes
// go out: a deadline that expires after the first row.
type cancelOnWrite struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (w cancelOnWrite) Write(p []byte) (int, error) {
	defer w.cancel()
	return w.ResponseRecorder.Write(p)
}

// Where in a request its deadline expires.
const (
	never = iota
	beforeFirstRow
	afterFirstRow
)

func do(t *testing.T, h http.Handler, method, target string, body []byte, expire int) (rp reply) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := httptest.NewRecorder()
	var w http.ResponseWriter = rec
	switch expire {
	case beforeFirstRow:
		cancel()
	case afterFirstRow:
		w = cancelOnWrite{rec, cancel}
	}
	defer func() {
		if p := recover(); p != nil {
			if p != http.ErrAbortHandler {
				panic(p)
			}
			rp = reply{Aborted: true, Body: rec.Body.String()}
		}
	}()
	h.ServeHTTP(w, httptest.NewRequest(method, target, bytes.NewReader(body)).WithContext(ctx))
	return reply{Status: rec.Code, Header: rec.Header(), Body: rec.Body.String()}
}

func ndjson(t *testing.T, caps []*capture.Capture) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, c := range caps {
		line, err := capturedb.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

// TestFrontDoorConformance runs one scripted request sequence against a
// single capd and against a 3-node R=2 ring and requires the same
// answer from both — status, headers and body — at every step: the
// archive speaks one dialect whichever tier answers. The script pins
// the replies too, so two fronts agreeing on a wrong answer fail it.
//
// The ring may differ in exactly one way, marked ringBody below: it
// keeps no per-record idempotency index (its nodes do), so an unordered
// re-delivery is re-committed and reported accepted where a capd
// reports duplicates. Its write-quorum wait (W=2 here, so an
// acknowledged record is on every replica before the reads) changes
// when it answers, not what.
func TestFrontDoorConformance(t *testing.T) {
	const shards = 4
	store, err := capstore.Create(t.TempDir(), shards)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ing, err := capstore.NewIngester(store, capstore.IngestConfig{MaxPendingBatches: 1})
	if err != nil {
		t.Fatal(err)
	}
	capd := http.NewServeMux()
	capd.Handle("/ingest", ing)
	capd.Handle("/", capstore.NewHandler(store))

	c := newCluster(t, 3, shards, func(cfg *Config) {
		cfg.MaxPendingBatches = 1
		cfg.Quorum = 2
		cfg.QuorumTimeout = 30 * time.Second // the bulk batch under -race
	})
	ring := Handler(c.w)

	var some, ordered, bulk []*capture.Capture
	for i := 0; i < 40; i++ {
		some = append(some, mkCapture(i))
	}
	for i := 0; i < 12; i++ {
		ordered = append(ordered, mkCapture(100+i))
	}
	// Enough rows that no segment's stream fits in a read-ahead budget:
	// a deadline expiring after the first row must find every tier
	// mid-stream.
	for i := 0; i < 8000; i++ {
		bulk = append(bulk, mkCapture(1000+i))
	}
	total := len(some) + 8 + len(bulk) // ordered[8:12] is only ever skipped

	const (
		jsonType = "application/json"
		textType = "text/plain; charset=utf-8"
		rowsType = "application/x-ndjson"
	)
	ingested := func(accepted, duplicates, pending int) string {
		return fmt.Sprintf("{\"accepted\":%d,\"duplicates\":%d,\"pending\":%d}\n", accepted, duplicates, pending)
	}
	for _, step := range []struct {
		name        string
		method      string
		target      string
		body        []byte
		expire      int
		status      int
		contentType string
		retryAfter  bool
		allow       string
		wantBody    string // "" leaves the body to the capd = ring comparison
		ringBody    string // the ring's body where it may differ from wantBody
		lines       int    // NDJSON rows wanted, when > 0
		aborted     bool
	}{
		{name: "unordered batch", method: "POST", target: "/ingest", body: ndjson(t, some),
			status: 200, contentType: jsonType, wantBody: ingested(40, 0, 0)},
		{name: "unordered re-delivery", method: "POST", target: "/ingest", body: ndjson(t, some),
			status: 200, contentType: jsonType, wantBody: ingested(0, 40, 0), ringBody: ingested(40, 0, 0)},
		{name: "out of order buffers", method: "POST", target: "/ingest?at=4&n=4", body: ndjson(t, ordered[4:8]),
			status: 200, contentType: jsonType, wantBody: ingested(4, 0, 1)},
		{name: "re-delivery of a waiting range", method: "POST", target: "/ingest?at=4&n=4", body: ndjson(t, ordered[4:8]),
			status: 200, contentType: jsonType, wantBody: ingested(0, 4, 1)},
		{name: "shed at the bound", method: "POST", target: "/ingest?at=8&n=4", body: ndjson(t, ordered[8:12]),
			status: 503, contentType: textType, retryAfter: true},
		// accepted counts this request's 4 records, not the 8 it drained.
		{name: "unblock", method: "POST", target: "/ingest?at=0&n=4", body: ndjson(t, ordered[0:4]),
			status: 200, contentType: jsonType, wantBody: ingested(4, 0, 0)},
		{name: "skip marker", method: "POST", target: "/ingest?at=8&n=4",
			status: 200, contentType: jsonType, wantBody: ingested(0, 0, 0)},
		// On the ring this also waits out the quorum of [4,8), which the
		// unblocking push committed but did not wait for.
		{name: "stale range", method: "POST", target: "/ingest?at=4&n=4", body: ndjson(t, ordered[4:8]),
			status: 200, contentType: jsonType, wantBody: ingested(0, 4, 0)},
		{name: "at inside a committed range", method: "POST", target: "/ingest?at=6&n=2", body: ndjson(t, ordered[6:8]),
			status: 200, contentType: jsonType, wantBody: ingested(0, 2, 0)},
		{name: "negative at", method: "POST", target: "/ingest?at=-1&n=4", status: 400, contentType: textType},
		{name: "at not a number", method: "POST", target: "/ingest?at=x&n=4", status: 400, contentType: textType},
		{name: "at without n", method: "POST", target: "/ingest?at=12", status: 400, contentType: textType},
		{name: "zero n", method: "POST", target: "/ingest?at=12&n=0", status: 400, contentType: textType},
		{name: "records > n", method: "POST", target: "/ingest?at=12&n=1", body: ndjson(t, ordered[8:10]),
			status: 400, contentType: textType},
		{name: "wrong method", method: "GET", target: "/ingest",
			status: 405, contentType: textType, allow: "POST"},
		{name: "malformed body line", method: "POST", target: "/ingest",
			body:   append(ndjson(t, ordered[8:9]), "{not a record}\n"...),
			status: 400, contentType: textType},
		{name: "bulk", method: "POST", target: "/ingest", body: ndjson(t, bulk),
			status: 200, contentType: jsonType, wantBody: ingested(len(bulk), 0, 0)},

		{name: "query page 1", method: "GET", target: "/query?failed=1&limit=5", status: 200, contentType: rowsType, lines: 5},
		{name: "query page 2", method: "GET", target: "/query?failed=1&limit=5&offset=5", status: 200, contentType: rowsType, lines: 5},
		{name: "query one domain, paged", method: "GET", target: "/query?domain=site3.example&limit=3&offset=2", status: 200, contentType: rowsType, lines: 3},
		{name: "query past the end", method: "GET", target: fmt.Sprintf("/query?failed=1&offset=%d", total), status: 200, contentType: rowsType},
		{name: "count all", method: "GET", target: "/count?failed=1",
			status: 200, contentType: jsonType, wantBody: fmt.Sprintf("{\"count\":%d}\n", total)},
		{name: "count day 0 only", method: "GET", target: "/count?failed=1&to=0", status: 200, contentType: jsonType},
		{name: "negative limit", method: "GET", target: "/query?limit=-1", status: 400, contentType: textType},
		{name: "bad failed", method: "GET", target: "/count?failed=maybe", status: 400, contentType: textType},
		{name: "bad day", method: "GET", target: "/count?from=notaday", status: 400, contentType: textType},

		{name: "query past its deadline", method: "GET", target: "/query?failed=1", expire: beforeFirstRow,
			status: 503, contentType: textType, retryAfter: true},
		{name: "count past its deadline", method: "GET", target: "/count?vantage=us-cloud", expire: beforeFirstRow,
			status: 503, contentType: textType, retryAfter: true},
		{name: "deadline after the first row", method: "GET", target: "/query?failed=1", expire: afterFirstRow,
			aborted: true},
	} {
		got := do(t, capd, step.method, step.target, step.body, step.expire)
		onRing := do(t, ring, step.method, step.target, step.body, step.expire)
		if step.aborted {
			// How much went out before the cut is timing; that it was cut
			// after the same first row is not.
			first := func(r reply) string { return r.Body[:strings.IndexByte(r.Body, '\n')+1] }
			if !got.Aborted || !onRing.Aborted || first(got) == "" || first(got) != first(onRing) {
				t.Errorf("%s: capd aborted=%v after %d bytes, ring aborted=%v after %d bytes; want both cut after the same first row",
					step.name, got.Aborted, len(got.Body), onRing.Aborted, len(onRing.Body))
			}
			continue
		}
		want := reply{Status: step.status, Header: http.Header{"Content-Type": {step.contentType}}, Body: step.wantBody}
		if step.contentType == textType {
			want.Header.Set("X-Content-Type-Options", "nosniff") // http.Error's
		}
		if step.retryAfter {
			want.Header.Set("Retry-After", "1")
		}
		if step.allow != "" {
			want.Header.Set("Allow", step.allow)
		}
		if want.Body == "" {
			want.Body = got.Body
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: capd answered\n%+v\nwant\n%+v", step.name, got, want)
		}
		if step.ringBody != "" {
			want.Body = step.ringBody
		}
		if !reflect.DeepEqual(onRing, want) {
			t.Errorf("%s: ring answered\n%+v\nwant (as capd)\n%+v", step.name, onRing, want)
		}
		if n := strings.Count(got.Body, "\n"); step.lines > 0 && n != step.lines {
			t.Errorf("%s: %d rows, want %d", step.name, n, step.lines)
		}
		if step.status >= 400 && strings.TrimSpace(got.Body) == "" {
			t.Errorf("%s: error reply says nothing", step.name)
		}
	}

	// The day-0 bound survived both wires: fewer than everything, not none.
	day0 := do(t, ring, "GET", "/count?failed=1&to=0", nil, never).Body
	if day0 == fmt.Sprintf("{\"count\":%d}\n", total) || day0 == "{\"count\":0}\n" {
		t.Errorf("count with to=0 answered %q: the corpus cannot tell a day-0 bound from none", day0)
	}
	// And the ordered commits landed in range order on every replica.
	if st := c.w.Stats(); st.NextSeq != 12 || st.Awaiting != 0 || ing.Stats().NextSeq != 12 {
		t.Errorf("cursors: ring %+v, capd %+v, want next_seq 12 and nothing awaiting", st, ing.Stats())
	}
}

// TestQueryServesStoredBytes: a /query row is the line the store holds,
// on a storage node and through the ring in front of three of them.
// Both stores hold packs plus a tail, and each query shape takes a
// different read path: a sweep and a host query that index metadata
// settles, a routed domain query, and a vantage filter over a day range
// that reads the record head. Each body must be the concatenated stored
// lines of the matching records, in canonical order.
func TestQueryServesStoredBytes(t *testing.T) {
	const shards = 4
	caps := make([]*capture.Capture, 90)
	for i := range caps {
		caps[i] = readCapture(i)
	}
	cut := 60

	store, err := capstore.Create(t.TempDir(), shards)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i, c := range caps {
		if i == cut {
			if _, err := store.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
		store.Record(c)
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	node := capstore.NewHandler(store)

	c := newCluster(t, 3, shards, nil)
	c.push(t, 0, caps[:cut])
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.stores {
		if _, err := s.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	c.push(t, cut, caps[cut:])
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ring := Handler(c.w)

	// The stored lines, in canonical order: each segment's raw stream,
	// packs then tail.
	var stored [][]byte
	for s := 0; s < shards; s++ {
		var seg bytes.Buffer
		if _, _, err := store.StreamShard(s, 0, &seg); err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(seg.Bytes(), []byte("\n")) {
			if len(line) > 0 {
				stored = append(stored, line)
			}
		}
	}
	if len(stored) != len(caps) {
		t.Fatalf("the node stores %d lines, want %d", len(stored), len(caps))
	}
	if st := store.Stats(); st.Packs == 0 || st.Records == st.PackedRecords {
		t.Fatalf("want packs plus a tail, store has %+v", st)
	}

	for _, tc := range []struct {
		target string
		q      capturedb.Query
	}{
		{"/query?failed=1", capturedb.Query{IncludeFailed: true}},
		{"/query?domain=site3.example", capturedb.Query{Domain: "site3.example"}},
		{"/query?host=cmp0.example&failed=1", capturedb.Query{RequestHost: "cmp0.example", IncludeFailed: true}},
		{"/query?vantage=eu-cloud&from=1&to=4", capturedb.Query{Vantage: "eu-cloud", From: 1, To: 4, HasTo: true}},
	} {
		var want []byte
		for _, line := range stored {
			c, err := capturedb.Decode(line)
			if err != nil {
				t.Fatal(err)
			}
			if tc.q.Match(c) {
				want = append(want, line...)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s matches nothing", tc.target)
		}
		for name, h := range map[string]http.Handler{"node": node, "ring": ring} {
			if rp := do(t, h, http.MethodGet, tc.target, nil, never); rp.Status != http.StatusOK || rp.Body != string(want) {
				t.Errorf("%s %s: status %d, %d body bytes, want the %d bytes stored", name, tc.target, rp.Status, len(rp.Body), len(want))
			}
		}
	}
}
