package capstore

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// ingestCapture fabricates a distinct, fully-populated capture; i keys
// every identifying field so idempotency and ordering are observable.
func ingestCapture(i int) *capture.Capture {
	return &capture.Capture{
		SeedURL:     fmt.Sprintf("https://site%d.com/p/%d", i%7, i),
		FinalURL:    fmt.Sprintf("https://site%d.com/p/%d", i%7, i),
		FinalDomain: fmt.Sprintf("site%d.com", i%7),
		Day:         simtime.Day(i % 5),
		Vantage:     capture.USCloud,
		Status:      200,
		Requests: []capture.Request{
			{Host: fmt.Sprintf("cdn%d.example", i%3), Path: "/t.js", Status: 200, BytesRaw: 100 + i, BytesCompressed: 100 + i},
		},
	}
}

func newIngestServer(t *testing.T, shards int, cfg IngestConfig) (*Store, *Ingester, *Client) {
	t.Helper()
	store, err := Create(t.TempDir(), shards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ing, err := NewIngester(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/ingest", ing)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return store, ing, NewClient(srv.URL)
}

// readSegments returns segment-file name → contents for a store dir.
func readSegments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

func compareSegments(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("segment count differs: %d vs %d", len(want), len(got))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("segment %s missing", name)
		}
		if string(w) != string(g) {
			t.Errorf("segment %s differs:\ndirect: %q\ningest: %q", name, w, g)
		}
	}
}

// TestIngestRoundTripByteEquivalence is the satellite's headline: a
// batch delivered over Client.RecordBatch lands byte-identical to the
// same captures recorded directly with Store.Record.
func TestIngestRoundTripByteEquivalence(t *testing.T) {
	var caps []*capture.Capture
	for i := 0; i < 40; i++ {
		caps = append(caps, ingestCapture(i))
	}

	directDir := t.TempDir()
	direct, err := Create(directDir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps {
		direct.Record(c)
	}
	if err := direct.Close(); err != nil {
		t.Fatal(err)
	}

	remote, _, cl := newIngestServer(t, 4, IngestConfig{})
	res, err := cl.RecordBatch(caps)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != int64(len(caps)) || res.Duplicates != 0 {
		t.Fatalf("RecordBatch result = %+v, want %d accepted", res, len(caps))
	}
	if err := remote.Flush(); err != nil {
		t.Fatal(err)
	}
	compareSegments(t, readSegments(t, directDir), readSegments(t, remote.Dir()))
}

// TestIngestIdempotentRedelivery: the same idempotency key twice yields
// one record — via RecordBatch re-delivery and via single Record.
func TestIngestIdempotentRedelivery(t *testing.T) {
	store, ing, cl := newIngestServer(t, 2, IngestConfig{})
	caps := []*capture.Capture{ingestCapture(0), ingestCapture(1)}

	if _, err := cl.RecordBatch(caps); err != nil {
		t.Fatal(err)
	}
	res, err := cl.RecordBatch(caps) // ambiguous-failure re-delivery
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Duplicates != 2 {
		t.Fatalf("re-delivery result = %+v, want 0 accepted / 2 duplicates", res)
	}
	if res3, err := cl.Record(caps[0]); err != nil || res3.Duplicates != 1 {
		t.Fatalf("Record re-delivery = %+v, %v", res3, err)
	}
	if n := store.Stats().Records; n != 2 {
		t.Fatalf("store has %d records, want 2", n)
	}
	st := ing.Stats()
	if st.Accepted != 2 || st.Duplicates != 3 {
		t.Fatalf("ingest stats = %+v", st)
	}
}

// TestIngestIdempotencySurvivesReopen: the key index is seeded from the
// store on NewIngester, so re-delivery after a capd restart still
// dedups.
func TestIngestIdempotencySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	store, err := Create(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := NewIngester(store, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ing.IngestBatch([]*capture.Capture{ingestCapture(0)})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ing2, err := NewIngester(store2, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res := ing2.IngestBatch([]*capture.Capture{ingestCapture(0), ingestCapture(1)})
	if res.Accepted != 1 || res.Duplicates != 1 {
		t.Fatalf("post-reopen result = %+v, want 1 accepted / 1 duplicate", res)
	}
}

// TestIngestConcurrentClients exercises the ingest path under -race:
// several clients push disjoint batches concurrently; every record
// lands exactly once.
func TestIngestConcurrentClients(t *testing.T) {
	store, _, cl := newIngestServer(t, 4, IngestConfig{})
	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var caps []*capture.Capture
			for i := 0; i < perClient; i++ {
				caps = append(caps, ingestCapture(w*perClient+i))
			}
			// Deliver twice: double-delivery must not double-store.
			if _, err := cl.RecordBatch(caps); err != nil {
				errs <- err
				return
			}
			if _, err := cl.RecordBatch(caps); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := store.Stats().Records; n != clients*perClient {
		t.Fatalf("store has %d records, want %d", n, clients*perClient)
	}
}

// TestIngestOrderedCommit: ordered batches commit in range order no
// matter the arrival order, producing the same bytes as a sequential
// direct run; re-delivered and stale ranges are dropped whole.
func TestIngestOrderedCommit(t *testing.T) {
	var caps []*capture.Capture
	for i := 0; i < 12; i++ {
		caps = append(caps, ingestCapture(i))
	}
	directDir := t.TempDir()
	direct, err := Create(directDir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps[:8] { // items 8..11 will be a skipped range
		direct.Record(c)
	}
	if err := direct.Close(); err != nil {
		t.Fatal(err)
	}

	remote, ing, cl := newIngestServer(t, 2, IngestConfig{})
	// Arrive out of order: [4,8) first, then [0,4), then the skip.
	if res, err := cl.RecordBatchAt(4, 4, caps[4:8]); err != nil || res.Pending != 1 {
		t.Fatalf("out-of-order push: res=%+v err=%v", res, err)
	}
	if ing.Stats().NextSeq != 0 {
		t.Fatalf("cursor moved before its turn: %+v", ing.Stats())
	}
	if res, err := cl.RecordBatchAt(0, 4, caps[0:4]); err != nil || res.Pending != 0 {
		t.Fatalf("unblocking push: res=%+v err=%v", res, err)
	}
	if res, err := cl.RecordBatchAt(8, 4, nil); err != nil || res.Accepted != 0 { // dead range: cursor skip
		t.Fatalf("skip push: res=%+v err=%v", res, err)
	}
	if st := ing.Stats(); st.NextSeq != 12 || st.PendingBatches != 0 {
		t.Fatalf("cursor = %+v, want next_seq 12", st)
	}
	// Re-delivery of a committed range is a no-op.
	if res, err := cl.RecordBatchAt(4, 4, caps[4:8]); err != nil || res.Duplicates != 4 {
		t.Fatalf("stale push: res=%+v err=%v", res, err)
	}
	if err := remote.Flush(); err != nil {
		t.Fatal(err)
	}
	compareSegments(t, readSegments(t, directDir), readSegments(t, remote.Dir()))
}

// TestIngestOrderedShedding: out-of-order batches beyond the buffer
// bound are refused with ErrIngestShed; the unblocking batch is always
// admitted.
func TestIngestOrderedShedding(t *testing.T) {
	_, ing, cl := newIngestServer(t, 2, IngestConfig{MaxPendingBatches: 1})
	if _, err := cl.RecordBatchAt(2, 2, []*capture.Capture{ingestCapture(2), ingestCapture(3)}); err != nil {
		t.Fatal(err)
	}
	_, err := cl.RecordBatchAt(4, 2, []*capture.Capture{ingestCapture(4), ingestCapture(5)})
	if !errors.Is(err, ErrIngestShed) {
		t.Fatalf("expected ErrIngestShed, got %v", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.RetryAfter != time.Second {
		t.Fatalf("shed error should carry the server's Retry-After hint, got %#v", err)
	}
	if ing.Stats().Shed != 1 {
		t.Fatalf("shed counter = %+v", ing.Stats())
	}
	// The batch that unblocks the cursor is admitted past the bound.
	if _, err := cl.RecordBatchAt(0, 2, []*capture.Capture{ingestCapture(0), ingestCapture(1)}); err != nil {
		t.Fatal(err)
	}
	if st := ing.Stats(); st.NextSeq != 4 {
		t.Fatalf("cursor = %+v, want next_seq 4", st)
	}
}

// TestIngestMetrics: the capstore_ingest_* families register and the
// exposition stays valid.
func TestIngestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := Create(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ing, err := NewIngester(store, IngestConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ing.IngestBatch([]*capture.Capture{ingestCapture(0), ingestCapture(0)})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"capstore_ingest_records_total 1",
		"capstore_ingest_duplicates_total 1",
		"capstore_ingest_batches_total 1",
		"capstore_ingest_next_seq 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	if err := obs.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
}

// TestIngesterSeedFromLines: the idempotency set NewIngester seeds from
// the stored lines' keys is the IngestKey set of the decoded records —
// over packs and a tail, with seed URLs the wire escapes and a stored
// line outside the canonical layout.
func TestIngesterSeedFromLines(t *testing.T) {
	dir := t.TempDir()
	store, err := Create(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	add := func(from, to int) {
		for i := from; i < to; i++ {
			c := ingestCapture(i)
			switch i % 4 {
			case 1:
				c.SeedURL += "?a=1&b=<2>" // written as \u0026 \u003c \u003e
			case 2:
				c.SeedURL += "/\"quoted\"\u2028"
				c.Config = "tab\there"
			case 3:
				c.SeedURL += "/\xff" // invalid UTF-8: written as \ufffd
			}
			store.Record(c)
		}
	}
	add(0, 40)
	if _, err := store.CompactAll(); err != nil {
		t.Fatal(err)
	}
	add(40, 60)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if st := store.Stats(); st.Packs == 0 || tailRecords(st) == 0 {
		t.Fatalf("want packs and a tail, have %d packs and %d tail records", st.Packs, tailRecords(st))
	}
	in, err := NewIngester(store, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]struct{})
	if err := store.Query(capturedb.Query{IncludeFailed: true}, func(c *capture.Capture) bool {
		want[IngestKey(c)] = struct{}{}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) != 60 || !reflect.DeepEqual(in.seen, want) {
		t.Fatalf("seeded %d keys, the decoded records hold %d:\nseeded %q\nwant   %q", len(in.seen), len(want), in.seen, want)
	}
}
