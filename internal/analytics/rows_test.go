package analytics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/analysis"
	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/cmps"
	"repro/internal/detect"
)

// FuzzRowOfLine holds the two row producers to each other: the key
// scan accepts exactly the lines capturedb.Decode accepts, and its row
// equals RowOf over the decoded capture. A row shares nothing with its
// line: clobbering the line afterwards leaves it unchanged.
func FuzzRowOfLine(f *testing.F) {
	golden, err := os.ReadFile("../capturedb/testdata/wire.golden")
	if err != nil {
		f.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(golden))
	for sc.Scan() {
		f.Add(sc.Text() + "\n")
	}
	data, err := os.ReadFile("../capturedb/testdata/noncanonical.json")
	if err != nil {
		f.Fatal(err)
	}
	var nonCanonical []struct{ Line string }
	if err := json.Unmarshal(data, &nonCanonical); err != nil {
		f.Fatal(err)
	}
	for _, tc := range nonCanonical {
		f.Add(tc.Line)
	}
	det := detect.Default()
	f.Fuzz(func(t *testing.T, input string) {
		line := []byte(input)
		scan := rowScanner{det: det, names: make(map[string]string)}
		got, err := scan.row(line)
		c, derr := capturedb.Decode(line)
		if (err == nil) != (derr == nil) {
			t.Fatalf("row err %v, Decode err %v", err, derr)
		}
		if err != nil {
			return
		}
		want := analysis.RowOf(det, c)
		if got != want {
			t.Fatalf("row from keys\n%+v want RowOf\n%+v", got, want)
		}
		for i := range line {
			line[i] = '#'
		}
		if got != want {
			t.Fatalf("row changed with its line: %+v", got)
		}
	})
}

// shardSource serves per-shard line lists, revealing them as a test
// appends to them: a store whose committed lines the test chooses.
type shardSource struct{ shards [][][]byte }

func (s *shardSource) Counts() ([]int, error) {
	out := make([]int, len(s.shards))
	for i, lines := range s.shards {
		out[i] = len(lines)
	}
	return out, nil
}

func (s *shardSource) Stream(shard, from int) (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(bytes.Join(s.shards[shard][from:], nil))), nil
}

// rowsTestCapture is testCapture(i) with the record shapes the two
// producers could disagree on mixed in: multi-CMP pages, domains the
// wire format escapes, and failed captures with a CMP request.
func rowsTestCapture(i int) *capture.Capture {
	c := testCapture(i)
	switch i % 7 {
	case 1:
		c.Requests = append(c.Requests,
			capture.Request{Host: cmps.Cookiebot.Hostname(), Path: "/uc.js", Status: 200},
			capture.Request{Host: cmps.OneTrust.Hostname(), Path: "/otSDKStub.js", Status: 200})
	case 3:
		c.FinalDomain = fmt.Sprintf("esc<%d>\"aped\".example", i%3)
		c.Requests = append(c.Requests, capture.Request{Host: cmps.Quantcast.Hostname(), Path: "/cmp.js", Status: 200})
	case 5:
		c.Failed = true
		c.Requests = append(c.Requests, capture.Request{Host: cmps.TrustArc.Hostname(), Path: "/t.js", Status: 200})
	}
	return c
}

// TestFollowMatchesApply: an engine fed captures with Apply and one
// following the same captures as stored lines serve byte-identical
// views at every batch cursor. Every fourth line is stored
// non-canonically (each / written \/), so the key scan's fallback path
// is followed too.
func TestFollowMatchesApply(t *testing.T) {
	const (
		nshards = 3
		total   = 400
		batch   = 23
	)
	src := &shardSource{shards: make([][][]byte, nshards)}
	applied := NewEngine(testConfig())
	followed := NewEngine(testConfig())
	f := NewFollower(FollowerConfig{Source: src, Engine: followed, BatchSize: 5})
	checked := 0
	for at := 0; at < total; at += batch {
		var caps []*capture.Capture
		for i := at; i < at+batch && i < total; i++ {
			c := rowsTestCapture(i)
			line, err := capturedb.Encode(c)
			if err != nil {
				t.Fatal(err)
			}
			if i%4 == 0 {
				line = bytes.ReplaceAll(line, []byte("/"), []byte(`\/`))
			}
			shard := capstore.ShardOf(c.FinalDomain, nshards)
			src.shards[shard] = append(src.shards[shard], line)
			applied.Apply(shard, []*capture.Capture{c})
			caps = append(caps, c)
		}
		if _, err := f.Sweep(); err != nil {
			t.Fatal(err)
		}
		if followed.Cursor() != applied.Cursor() {
			t.Fatalf("followed cursor %d, applied %d", followed.Cursor(), applied.Cursor())
		}
		want, err := applied.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		got, err := followed.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range ViewNames() {
			if !bytes.Equal(got[name], want[name]) {
				t.Fatalf("cursor %d, view %s: followed and applied bytes differ\nfollowed: %.300s\n applied: %.300s",
					applied.Cursor(), name, got[name], want[name])
			}
		}
		checked++
	}
	a, _ := applied.MarshalState()
	b, _ := followed.MarshalState()
	if !bytes.Equal(a, b) {
		t.Fatal("fold state differs between the two producers")
	}
	t.Logf("byte-identical views at %d batch cursors", checked)
}

// TestFollowAllocatesNothingPerRecord: following records of domains
// already folded allocates nothing per record. What a stream allocates
// is its reader and the amortized growth of the per-domain record
// slices; decoding a crawl record alone costs four allocations.
func TestFollowAllocatesNothingPerRecord(t *testing.T) {
	const n = 1024
	var body []byte
	for i := 0; i < n; i++ {
		line, err := capturedb.Encode(rowsTestCapture(i))
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, line...)
	}
	f := NewFollower(FollowerConfig{Source: linesSource{body}, Engine: NewEngine(testConfig())})
	follow := func() {
		if got, err := f.followShard(0, 0); got != n || err != nil {
			t.Fatalf("followShard: %d records, %v", got, err)
		}
	}
	follow()
	perRecord := testing.AllocsPerRun(20, follow) / n
	t.Logf("%.4f allocations per followed record", perRecord)
	if perRecord > 0.01 {
		t.Errorf("%.4f allocations per followed record, want 0 (at most 1 per 100 for the stream and slice growth)", perRecord)
	}
}
