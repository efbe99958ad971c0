package capturedb

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/capture"
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
		Cookies: []webworld.Cookie{{Domain: domain, Name: "session", Value: "abc|123"}},
		Storage: []webworld.StorageRecord{
			{Kind: webworld.LocalStorage, Origin: "www." + domain, Key: "prefs"},
			{Kind: webworld.IndexedDB, Origin: "www.google-analytics.com", Key: "_ga_client", Identifying: true},
		},
		ScreenshotText: "We value your privacy",
	}
}

// encodeAll is the wire stream of cs, one line per capture.
func encodeAll(t testing.TB, cs ...*capture.Capture) []byte {
	t.Helper()
	var buf []byte
	for _, c := range cs {
		var err error
		if buf, err = AppendEncode(buf, c); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func TestRoundTrip(t *testing.T) {
	data := encodeAll(t, sample("a.com", 100, "cdn.cookielaw.org"),
		&capture.Capture{SeedURL: "x", Failed: true, Error: "connection refused", Vantage: capture.USCloud})

	var got []*capture.Capture
	err := Scan(bytes.NewReader(data), Query{IncludeFailed: true}, func(c *capture.Capture) bool {
		got = append(got, c)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("scanned %d", len(got))
	}
	c := got[0]
	if c.FinalDomain != "a.com" || c.Day != 100 || c.Vantage.Name != capture.EUCloud.Name ||
		c.Vantage.Geo != webworld.GeoEU || !c.Vantage.Cloud {
		t.Errorf("capture: %+v", c)
	}
	if len(c.Requests) != 2 || c.Requests[1].Host != "cdn.cookielaw.org" || c.Requests[1].BytesRaw != 500 {
		t.Errorf("requests: %+v", c.Requests)
	}
	if len(c.Cookies) != 1 || c.Cookies[0].Name != "session" || c.Cookies[0].Value != "abc|123" {
		t.Errorf("cookies: %+v", c.Cookies)
	}
	if c.ScreenshotText != "We value your privacy" {
		t.Errorf("screenshot: %q", c.ScreenshotText)
	}
	if len(c.Storage) != 2 || c.Storage[0].Kind != webworld.LocalStorage ||
		!c.Storage[1].Identifying || c.Storage[1].Key != "_ga_client" {
		t.Errorf("storage: %+v", c.Storage)
	}
	if !got[1].Failed || got[1].Error != "connection refused" {
		t.Errorf("failed capture: %+v", got[1])
	}
}

func TestQueryFilters(t *testing.T) {
	failed := sample("c.com", 150, "cdn.cookielaw.org")
	failed.Failed = true
	data := encodeAll(t, sample("a.com", 100, "cdn.cookielaw.org"),
		sample("a.com", 200, "consent.cookiebot.com"),
		sample("b.com", 150, "cdn.cookielaw.org"), failed)

	count := func(q Query) int {
		n, err := Count(bytes.NewReader(data), q)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := count(Query{}); got != 3 {
		t.Errorf("unfiltered (no failed) = %d", got)
	}
	if got := count(Query{IncludeFailed: true}); got != 4 {
		t.Errorf("with failed = %d", got)
	}
	if got := count(Query{Domain: "a.com"}); got != 2 {
		t.Errorf("by domain = %d", got)
	}
	if got := count(Query{From: 120, To: 180}); got != 1 {
		t.Errorf("by day range = %d", got)
	}
	if got := count(Query{To: 150}); got != 2 {
		t.Errorf("upper bound only = %d", got)
	}
	if got := count(Query{RequestHost: "consent.cookiebot.com"}); got != 1 {
		t.Errorf("by request host = %d", got)
	}
	if got := count(Query{Vantage: "us-cloud"}); got != 0 {
		t.Errorf("by vantage = %d", got)
	}
}

// TestQueryDayZeroBound pins the HasTo fix: a query bounded to day 0
// must not silently become unbounded.
func TestQueryDayZeroBound(t *testing.T) {
	data := encodeAll(t, sample("a.com", 0, "cdn.cookielaw.org"),
		sample("a.com", 1, "cdn.cookielaw.org"),
		sample("a.com", 2, "cdn.cookielaw.org"))

	n, err := Count(bytes.NewReader(data), Query{From: 0, To: 0, HasTo: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("day-0-only query matched %d, want 1", n)
	}
	// Without HasTo, To == 0 stays unbounded (legacy zero value).
	n, err = Count(bytes.NewReader(data), Query{From: 0, To: 0})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("unbounded query matched %d, want 3", n)
	}
	if upper, ok := (&Query{To: 5}).Upper(); !ok || upper != 5 {
		t.Errorf("Upper() with To>0 = %d,%v", upper, ok)
	}
	if _, ok := (&Query{}).Upper(); ok {
		t.Error("zero query must be unbounded")
	}
}

// TestScanTruncated checks torn-write recovery: all complete records
// are yielded, then ErrTruncated is surfaced.
func TestScanTruncated(t *testing.T) {
	whole := encodeAll(t, sample("a.com", 10, "cdn.cookielaw.org"),
		sample("b.com", 20, "cdn.cookielaw.org"))
	torn := whole[:len(whole)-7] // cut the final record mid-JSON

	var got []*capture.Capture
	err := Scan(bytes.NewReader(torn), Query{}, func(c *capture.Capture) bool {
		got = append(got, c)
		return true
	})
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if len(got) != 1 || got[0].FinalDomain != "a.com" {
		t.Errorf("complete records before the tear: %+v", got)
	}

	// RecordReader reports the intact prefix length for repair.
	rr := NewRecordReader(bytes.NewReader(torn))
	for {
		if _, err := rr.Next(); err != nil {
			break
		}
	}
	firstLen := int64(bytes.IndexByte(whole, '\n') + 1)
	if rr.Valid() != firstLen {
		t.Errorf("Valid() = %d, want %d", rr.Valid(), firstLen)
	}

	// A clean final line without trailing newline is still accepted.
	n, err := Count(bytes.NewReader(whole[:len(whole)-1]), Query{})
	if err != nil || n != 2 {
		t.Errorf("unterminated clean tail: n=%d err=%v", n, err)
	}
}

func TestScanEarlyStop(t *testing.T) {
	var cs []*capture.Capture
	for i := 0; i < 10; i++ {
		cs = append(cs, sample("a.com", simtime.Day(i), "cdn.cookielaw.org"))
	}
	n := 0
	err := Scan(bytes.NewReader(encodeAll(t, cs...)), Query{}, func(*capture.Capture) bool {
		n++
		return n < 3
	})
	if err != nil || n != 3 {
		t.Errorf("early stop: n=%d err=%v", n, err)
	}
}

func TestScanMalformed(t *testing.T) {
	input := "{\"d\":\"a.com\"}\nnot json\n"
	err := Scan(strings.NewReader(input), Query{IncludeFailed: true}, func(*capture.Capture) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 error, got %v", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "captures.jsonl")
	if err := os.WriteFile(path, encodeAll(t, sample("a.com", 5, "cdn.cookielaw.org")), 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ScanFile(path, Query{}, func(*capture.Capture) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("n = %d", n)
	}
	if err := ScanFile(filepath.Join(t.TempDir(), "missing.jsonl"), Query{}, nil); err == nil {
		t.Error("missing file must error")
	}
}

// TestRecordReaderLines: NextLine hands on each record's line
// undecoded and newline-terminated, also a line longer than the
// reader's buffer (which Next decodes whole as well); an unterminated
// final line comes back with its newline when it decodes and is
// reported torn when it does not.
func TestRecordReaderLines(t *testing.T) {
	long := sample("b.com", 2, "cdn.cookielaw.org")
	long.ScreenshotText = strings.Repeat("x", 200<<10)
	whole := encodeAll(t, sample("a.com", 1, "cdn.cookielaw.org"), long,
		sample("c.com", 3, "cdn.cookielaw.org"))
	lines := bytes.SplitAfter(whole, []byte("\n"))[:3]

	rr := NewRecordReader(bytes.NewReader(whole[:len(whole)-1]))
	for i, want := range lines {
		if got, err := rr.NextLine(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("line %d: %d bytes (%v), want %d", i+1, len(got), err, len(want))
		}
	}
	if _, err := rr.NextLine(); err != io.EOF {
		t.Errorf("after the last line: %v, want io.EOF", err)
	}
	if rr.Valid() != int64(len(whole)-1) {
		t.Errorf("Valid() = %d, want %d", rr.Valid(), len(whole)-1)
	}

	rr = NewRecordReader(bytes.NewReader(whole))
	for i := range lines {
		c, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && c.ScreenshotText != long.ScreenshotText {
			t.Errorf("the long line decodes to a %d-byte screenshot", len(c.ScreenshotText))
		}
	}

	rr = NewRecordReader(bytes.NewReader(whole[:len(whole)-9]))
	for range lines[:2] {
		if _, err := rr.NextLine(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rr.NextLine(); !errors.Is(err, ErrTruncated) {
		t.Errorf("torn final line: %v, want ErrTruncated", err)
	}
	if want := int64(len(lines[0]) + len(lines[1])); rr.Valid() != want {
		t.Errorf("Valid() = %d, want %d", rr.Valid(), want)
	}
}
