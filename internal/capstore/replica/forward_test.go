package replica

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
)

// TestIngestForwardsBytes: behind the ring's front door a line the key
// scanner certifies canonical reaches both replicas' segments exactly
// as the pusher sent it, and any other line lands as
// Encode(Decode(line)), the bytes a decode and re-encode at every hop
// stored. A batch holding one line no node would store is refused 400
// at the ring, naming the line once, with nothing committed and the
// commit cursor where it was.
func TestIngestForwardsBytes(t *testing.T) {
	const shards = 4
	c := newCluster(t, 3, shards, func(cfg *Config) {
		cfg.Quorum = 2 // an acknowledged push is on both replicas
		cfg.QuorumTimeout = 30 * time.Second
	})
	ring := Handler(c.w)

	var caps []*capture.Capture
	for i := 0; i < 24; i++ {
		cp := mkCapture(i)
		switch i % 3 {
		case 1:
			cp.SeedURL += "?a=1&b=<2>" // escaped seed URL
		case 2:
			cp.Requests[0].Path = "/\"q\"\u2028\t"
			cp.ScreenshotText = "Tom & Jerry"
		}
		caps = append(caps, cp)
	}
	sent := [][]byte{}
	for _, cp := range caps {
		sent = append(sent, ndjson(t, []*capture.Capture{cp}))
	}
	// Lines that decode but that Encode would not have written, each
	// for a distinct share; the one without a final newline goes last.
	rec := func(i int, seed, rest string) string {
		return fmt.Sprintf(`{"s":"https://nc%d.example/%s","f":"","d":"nc%d.example","t":3,"v":"us-cloud","g":0%s}`, i, seed, i, rest)
	}
	for i, line := range []string{
		`{"f":"","s":"https://nc0.example/","d":"nc0.example","t":3,"v":"us-cloud","g":0,"st":200}`, // reordered keys
		rec(1, `\u0041`, `,"st":200`),
		rec(2, `a\/b`, `,"st":200`),
		rec(3, `\ufffd`, `,"st":200`),
		rec(4, ``, `,"st":-0`),
		rec(5, ``, `,"cfg":"","st":200`),
		rec(6, `?x=<`, `,"st":200`),
		rec(7, "\u2028", `,"st":200`),
		rec(8, ``, `,"st":200,"r":[["nc8.example","/`+"\xff"+`",200,1]]`), // invalid UTF-8 in a path
		rec(9, `?x=\u003C`, `,"st":200`),                                  // uppercase hex
		rec(10, ``, `,"st":200`),                                          // missing final newline
	} {
		if i < 10 {
			line += "\n"
		}
		sent = append(sent, []byte(line))
	}
	body := bytes.Join(sent, nil)
	if rp := do(t, ring, http.MethodPost, fmt.Sprintf("/ingest?at=0&n=%d", len(sent)), body, never); rp.Status != http.StatusOK {
		t.Fatalf("ordered push: %d %s", rp.Status, rp.Body)
	}

	// Each segment must hold, in push order, the lines of its domains:
	// as sent when canonical, else re-encoded.
	want := make(map[string][]byte)
	forwarded := 0
	for _, line := range sent {
		dec, err := capturedb.Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := capturedb.Encode(dec)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(canon, line) {
			forwarded++
		}
		seg := fmt.Sprintf("seg-%03d.jsonl", capstore.ShardOf(dec.FinalDomain, shards))
		want[seg] = append(want[seg], canon...)
	}
	if forwarded != len(caps) {
		t.Fatalf("%d of the %d pushed lines are canonical, want the %d encoded captures", forwarded, len(sent), len(caps))
	}
	c.assertNodesCanonical(t, want, shards)

	// One bad line in an otherwise good ordered batch.
	good := ndjson(t, []*capture.Capture{mkCapture(500)})
	before := c.w.Stats()
	for _, tc := range []struct{ why, line string }{
		{"control byte in a path", rec(20, ``, `,"st":200,"r":[["nc20.example","/a`+"\x01"+`b",200,1]]`) + "\n"},
		{"torn last line", rec(21, ``, `,"st":200,"r":[["nc21.example","/`)},
		{"cookie with one |", rec(22, ``, `,"st":200,"ck":["nc22.example|only"]`) + "\n"},
	} {
		b := append(append([]byte{}, good...), tc.line...)
		rp := do(t, ring, http.MethodPost, fmt.Sprintf("/ingest?at=%d&n=2", len(sent)), b, never)
		if rp.Status != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", tc.why, rp.Status, rp.Body)
		}
		if n := strings.Count(rp.Body, "line 2"); n != 1 {
			t.Errorf("%s: the reply names line 2 %d times, want once: %s", tc.why, n, rp.Body)
		}
		if after := c.w.Stats(); after.Committed != before.Committed || after.NextSeq != before.NextSeq {
			t.Errorf("%s: committed %d cursor %d, was %d and %d", tc.why, after.Committed, after.NextSeq, before.Committed, before.NextSeq)
		}
	}
	c.assertNodesCanonical(t, want, shards)
}
