package capstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

func sample(domain string, day simtime.Day, host string) *capture.Capture {
	return &capture.Capture{
		SeedURL:     "https://www." + domain + "/",
		FinalURL:    "https://www." + domain + "/",
		FinalDomain: domain,
		Day:         day,
		Vantage:     capture.EUCloud,
		Config:      "default",
		Status:      200,
		Requests: []capture.Request{
			{Host: "www." + domain, Path: "/", Status: 200, BytesRaw: 1000, BytesCompressed: 1000},
			{Host: host, Path: "/cmp.js", Status: 200, BytesRaw: 500, BytesCompressed: 500},
		},
		Cookies: []webworld.Cookie{{Domain: domain, Name: "session", Value: "abc"}},
	}
}

// fill writes a deterministic mixed corpus and returns it in insert
// order.
func fill(t testing.TB, s *Store, n int) []*capture.Capture {
	t.Helper()
	hosts := []string{"cdn.cookielaw.org", "consent.cookiebot.com", "quantcast.mgr.consensu.org"}
	var all []*capture.Capture
	for i := 0; i < n; i++ {
		c := sample(fmt.Sprintf("site-%03d.com", i%37), simtime.Day(i%300), hosts[i%len(hosts)])
		if i%11 == 0 {
			c.Failed = true
			c.Error = "connection refused"
		}
		s.Record(c)
		all = append(all, c)
	}
	return all
}

// bruteForce scans the raw segment files with capturedb.Scan — the
// reference implementation capstore must agree with byte-for-byte.
func bruteForce(t testing.TB, dir string, q capturedb.Query) []byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var out bytes.Buffer
	for _, name := range names {
		err := capturedb.ScanFile(name, q, func(c *capture.Capture) bool {
			line, err := capturedb.Encode(c)
			if err != nil {
				t.Fatal(err)
			}
			out.Write(line)
			return true
		})
		if err != nil && !errors.Is(err, capturedb.ErrTruncated) {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return out.Bytes()
}

// indexed runs the same query through the store and renders results in
// the same wire format.
func indexed(t testing.TB, s *Store, q capturedb.Query) []byte {
	t.Helper()
	var out bytes.Buffer
	err := s.Query(q, func(c *capture.Capture) bool {
		line, err := capturedb.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(line)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

var equivalenceQueries = []capturedb.Query{
	{},
	{IncludeFailed: true},
	{Domain: "site-001.com"},
	{Domain: "site-001.com", IncludeFailed: true},
	{Domain: "no-such-domain.com"},
	{RequestHost: "cdn.cookielaw.org"},
	{RequestHost: "consent.cookiebot.com", From: 50, To: 120},
	{RequestHost: "no-such-host.example"},
	{Domain: "site-002.com", RequestHost: "cdn.cookielaw.org"},
	{From: 100, To: 200},
	{From: 0, To: 0, HasTo: true},
	{Vantage: "eu-cloud", From: 10},
	{Vantage: "us-cloud"},
}

func checkEquivalence(t *testing.T, s *Store, dir string) {
	t.Helper()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, q := range equivalenceQueries {
		want := bruteForce(t, dir, q)
		got := indexed(t, s, q)
		if !bytes.Equal(got, want) {
			t.Errorf("query %+v: indexed result diverges from linear scan (%d vs %d bytes)",
				q, len(got), len(want))
		}
	}
}

func TestStoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 500)
	checkEquivalence(t, s, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: indexes rebuilt from disk must answer identically.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 500 {
		t.Fatalf("reopened Len = %d", s2.Len())
	}
	if s2.NumShards() != 4 {
		t.Fatalf("reopened NumShards = %d", s2.NumShards())
	}
	checkEquivalence(t, s2, dir)

	// Appending after reopen keeps store and files in agreement.
	fill(t, s2, 100)
	checkEquivalence(t, s2, dir)
}

// TestConcurrentIngestQuery exercises simultaneous writers and readers
// (run with -race), then asserts index results are byte-identical to a
// brute-force capturedb.Scan over the same records.
func TestConcurrentIngestQuery(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers, perWriter = 8, 200
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent queriers: results only need to be internally
	// consistent while ingest runs; correctness is checked after.
	for i := 0; i < 4; i++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := simtime.Day(-1)
				err := s.Query(capturedb.Query{Domain: "w3-site-004.com"}, func(c *capture.Capture) bool {
					if c.FinalDomain != "w3-site-004.com" {
						t.Error("query returned wrong domain:", c.FinalDomain)
					}
					if c.Day < prev {
						t.Error("results out of canonical order")
					}
					prev = c.Day
					return true
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Count(capturedb.Query{RequestHost: "cdn.cookielaw.org"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				c := sample(fmt.Sprintf("w%d-site-%03d.com", w, i%10), simtime.Day(i), "cdn.cookielaw.org")
				s.Record(c)
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	if s.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", s.Len(), writers*perWriter)
	}
	checkEquivalence(t, s, dir)
	for w := 0; w < writers; w++ {
		q := capturedb.Query{Domain: fmt.Sprintf("w%d-site-004.com", w)}
		if got, want := indexed(t, s, q), bruteForce(t, dir, q); !bytes.Equal(got, want) {
			t.Errorf("writer %d: indexed diverges from scan", w)
		}
	}
}

// TestTruncatedRecovery crash-truncates a segment tail and checks that
// Open repairs it via the capturedb.ErrTruncated path.
func TestTruncatedRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	all := fill(t, s, 40)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record of the fuller segment.
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	sort.Strings(names)
	victim := ""
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil && fi.Size() > 0 {
			victim = name
		}
	}
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victim, fi.Size()-9); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().TruncatedTails; got != 1 {
		t.Errorf("TruncatedTails = %d, want 1", got)
	}
	if s2.Len() != int64(len(all)-1) {
		t.Errorf("Len after repair = %d, want %d", s2.Len(), len(all)-1)
	}
	// The torn segment was truncated back to a record boundary, so
	// fresh appends stay well-framed.
	fresh := sample("fresh.example.com", 250, "cdn.cookielaw.org")
	s2.Record(fresh)
	checkEquivalence(t, s2, dir)
	n, err := s2.Count(capturedb.Query{Domain: "fresh.example.com"})
	if err != nil || n != 1 {
		t.Errorf("fresh record after repair: n=%d err=%v", n, err)
	}
}

// TestPruningCounters pins the acceptance criterion: indexed queries
// must not scan non-matching rows, visible as RowsSkipped > 0.
func TestPruningCounters(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 400)

	base := s.Stats()
	var got int
	if err := s.Query(capturedb.Query{Domain: "site-005.com"}, func(*capture.Capture) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if got == 0 {
		t.Fatal("domain query found nothing")
	}
	scanned := st.RowsScanned - base.RowsScanned
	skipped := st.RowsSkipped - base.RowsSkipped
	if skipped == 0 {
		t.Error("domain query skipped no rows")
	}
	if scanned+skipped != 400 {
		t.Errorf("scanned %d + skipped %d != 400", scanned, skipped)
	}
	if scanned >= 400/4 {
		t.Errorf("domain query scanned %d rows — index not selective", scanned)
	}

	// Day-range pruning on the scan path: an out-of-range window must
	// skip whole segments without reading.
	base = s.Stats()
	n, err := s.Count(capturedb.Query{From: 5000, To: 6000})
	if err != nil || n != 0 {
		t.Fatalf("out-of-range: n=%d err=%v", n, err)
	}
	st = s.Stats()
	if st.RowsScanned != base.RowsScanned {
		t.Error("out-of-range day query read records")
	}
	if st.RowsSkipped-base.RowsSkipped != 400 {
		t.Errorf("out-of-range skipped %d, want 400", st.RowsSkipped-base.RowsSkipped)
	}
	if st.QueriesServed < 2 {
		t.Errorf("QueriesServed = %d", st.QueriesServed)
	}
}

func TestStatsShape(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 90)
	st := s.Stats()
	if st.Records != 90 || len(st.Shards) != 3 {
		t.Fatalf("stats: %+v", st)
	}
	total := 0
	for _, sh := range st.Shards {
		total += sh.Records
	}
	if total != 90 {
		t.Errorf("shard records sum %d", total)
	}
	if st.IndexedDomains != 37 {
		t.Errorf("IndexedDomains = %d, want 37", st.IndexedDomains)
	}
	if st.IndexedHosts == 0 || st.HostPostings == 0 {
		t.Errorf("host index empty: %+v", st)
	}
}

func TestOpenRejectsNonStore(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open of empty dir must fail")
	}
}

func TestCreateDefaultShards(t *testing.T) {
	s, err := Create(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumShards() != DefaultShards {
		t.Errorf("NumShards = %d", s.NumShards())
	}
	if _, err := Create(t.TempDir(), maxShards+1); err == nil {
		t.Error("shard cap not enforced")
	}
}

// TestRecordRefusesPipeInCookieKey: a capture the wire cannot carry
// (a '|' in a cookie domain or name) is not appended, and the store's
// Close reports it.
func TestRecordRefusesPipeInCookieKey(t *testing.T) {
	s, err := Create(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Record(&capture.Capture{FinalDomain: "a.example", Cookies: []webworld.Cookie{{Domain: "a|b", Name: "n", Value: "v"}}})
	if s.Len() != 0 {
		t.Errorf("store holds %d records", s.Len())
	}
	if err := s.Close(); err == nil {
		t.Error("Close reports no error")
	}
}
