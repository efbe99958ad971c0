package capstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/capstore/pack"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/simtime"
)

// twinStores builds a packed/unpacked pair holding identical records:
// n records each, with the packed store compacted at every boundary in
// cuts (record counts) so its shards hold multiple packs plus a tail.
func twinStores(t *testing.T, n int, cuts []int) (packed, plain *Store, packedDir, plainDir string) {
	t.Helper()
	packedDir, plainDir = t.TempDir(), t.TempDir()
	var err error
	packed, err = Create(packedDir, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { packed.Close() })
	plain, err = Create(plainDir, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plain.Close() })

	hosts := []string{"cdn.cookielaw.org", "consent.cookiebot.com", "quantcast.mgr.consensu.org"}
	cut := 0
	for i := 0; i < n; i++ {
		if cut < len(cuts) && i == cuts[cut] {
			if _, err := packed.CompactAll(); err != nil {
				t.Fatal(err)
			}
			cut++
		}
		c := sample(fmt.Sprintf("site-%03d.com", i%37), simtime.Day(i%300), hosts[i%len(hosts)])
		if i%11 == 0 {
			c.Failed = true
			c.Error = "connection refused"
		}
		packed.Record(c)
		plain.Record(c)
	}
	for cut < len(cuts) {
		if _, err := packed.CompactAll(); err != nil {
			t.Fatal(err)
		}
		cut++
	}
	return packed, plain, packedDir, plainDir
}

// checkTwinEquivalence asserts the packed store answers every
// equivalence query byte-identically to the plain store and that their
// logical manifests match exactly.
func checkTwinEquivalence(t *testing.T, packed, plain *Store) {
	t.Helper()
	for _, q := range equivalenceQueries {
		got, want := indexed(t, packed, q), indexed(t, plain, q)
		if !bytes.Equal(got, want) {
			t.Fatalf("query %+v: packed store diverges from plain store\npacked %d bytes, plain %d bytes", q, len(got), len(want))
		}
	}
	pm, err := packed.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	um, err := plain.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pm.Segments {
		if pm.Segments[i] != um.Segments[i] {
			t.Fatalf("manifest of shard %d: packed %+v vs plain %+v", i, pm.Segments[i], um.Segments[i])
		}
	}
}

func TestCompactionEquivalence(t *testing.T) {
	packed, plain, _, _ := twinStores(t, 400, []int{100, 230, 360})
	st := packed.Stats()
	if st.Packs == 0 || st.Compactions == 0 || st.PackedRecords == 0 {
		t.Fatalf("expected compactions to have happened: %+v", st)
	}
	if st.Records != 400 || st.PackedRecords+tailRecords(st) != 400 {
		t.Fatalf("record accounting off: %+v", st)
	}
	checkTwinEquivalence(t, packed, plain)

	// QueryShard splices packs + tail per shard.
	for i := 0; i < packed.NumShards(); i++ {
		var got, want bytes.Buffer
		collect := func(out *bytes.Buffer) func(*capture.Capture) bool {
			return func(c *capture.Capture) bool {
				line, _ := capturedb.Encode(c)
				out.Write(line)
				return true
			}
		}
		if err := packed.QueryShard(i, capturedb.Query{IncludeFailed: true}, collect(&got)); err != nil {
			t.Fatal(err)
		}
		if err := plain.QueryShard(i, capturedb.Query{IncludeFailed: true}, collect(&want)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("QueryShard(%d) diverges under compaction", i)
		}
	}
}

func tailRecords(st Stats) int64 {
	var n int64
	for _, ss := range st.Shards {
		n += int64(ss.TailRecords)
	}
	return n
}

func TestCompactedReopen(t *testing.T) {
	packed, plain, packedDir, _ := twinStores(t, 300, []int{120, 240})
	if err := packed.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(packedDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	if re.Len() != 300 {
		t.Fatalf("reopened store has %d records", re.Len())
	}
	st := re.Stats()
	indexedShards := 0
	for _, ss := range st.Shards {
		if ss.OpenPath == "indexed" {
			if ss.Packs == 0 {
				t.Fatalf("indexed open path with no packs: %+v", ss)
			}
			indexedShards++
		}
	}
	if indexedShards == 0 {
		t.Fatal("no shard took the indexed open path after compaction")
	}
	checkTwinEquivalence(t, re, plain)

	// Appends continue on the reopened tail and stay equivalent.
	extra := sample("site-001.com", 7, "cdn.cookielaw.org")
	re.Record(extra)
	plain.Record(extra)
	checkTwinEquivalence(t, re, plain)
}

// TestPrefixManifestPackEdges drives every prefix length through a
// multi-pack store and demands byte-for-byte agreement with the
// never-compacted twin: n == 0, n inside a pack, n exactly at each
// pack seam, n in the tail, and n beyond the record count.
func TestPrefixManifestPackEdges(t *testing.T) {
	packed, plain, _, _ := twinStores(t, 160, []int{60, 120})
	for i := 0; i < packed.NumShards(); i++ {
		v, err := packed.streamView(i)
		if err != nil {
			t.Fatal(err)
		}
		total := v.records()
		seams := map[int]bool{}
		var base int64
		for _, p := range v.packs {
			base += p.Summary.Records
			seams[int(base)] = true
		}
		for n := 0; n <= total; n++ {
			got, err := packed.PrefixManifest(i, n)
			if err != nil {
				t.Fatalf("shard %d prefix %d: %v", i, n, err)
			}
			want, err := plain.PrefixManifest(i, n)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("shard %d prefix %d (seam=%v): packed %+v vs plain %+v", i, n, seams[n], got, want)
			}
			if n == 0 && got.Hash != pack.HashHex(pack.HashOffset) {
				t.Fatalf("prefix 0 hash = %s, want FNV offset basis", got.Hash)
			}
		}
		if len(seams) < 2 {
			t.Fatalf("shard %d: expected ≥2 pack seams, got %v", i, seams)
		}
		if _, err := packed.PrefixManifest(i, total+1); err == nil {
			t.Fatalf("shard %d: prefix beyond record count must error", i)
		}
	}
	if _, err := packed.PrefixManifest(-1, 0); err == nil {
		t.Fatal("negative shard must error")
	}
}

// TestStreamShardAcrossPacks checks the spliced repair stream equals
// the plain store's from every starting record.
func TestStreamShardAcrossPacks(t *testing.T) {
	packed, plain, _, _ := twinStores(t, 120, []int{40, 80})
	for i := 0; i < packed.NumShards(); i++ {
		n, _, err := packed.segmentRange(i)
		if err != nil {
			t.Fatal(err)
		}
		for from := 0; from <= n; from++ {
			var got, want bytes.Buffer
			gr, gb, err := packed.StreamShard(i, from, &got)
			if err != nil {
				t.Fatalf("shard %d from %d: %v", i, from, err)
			}
			wr, wb, err := plain.StreamShard(i, from, &want)
			if err != nil {
				t.Fatal(err)
			}
			if gr != wr || gb != wb || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("shard %d from %d: packed stream (%d recs, %d bytes) != plain (%d recs, %d bytes)",
					i, from, gr, gb, wr, wb)
			}
		}
		if _, _, err := packed.StreamShard(i, n+1, &bytes.Buffer{}); err == nil {
			t.Fatal("stream past the record count must error")
		}
	}
}

// TestOverlapRepairOnOpen simulates a crash between pack commit and
// tail rewrite: the pre-compaction segment file (whose prefix is now
// duplicated by the pack) is restored over the rewritten tail, and
// Open must detect the duplicate prefix via the FNV chain and drop it.
func TestOverlapRepairOnOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 100)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Keep the pre-compaction segment bytes.
	before := map[string][]byte{}
	for i := 0; i < 2; i++ {
		b, err := os.ReadFile(filepath.Join(dir, segName(i)))
		if err != nil {
			t.Fatal(err)
		}
		before[segName(i)] = b
	}
	if _, err := s.CompactAll(); err != nil {
		t.Fatal(err)
	}
	fill(t, s, 30) // post-compaction appends land in the new tail
	wantAll := indexed(t, s, capturedb.Query{IncludeFailed: true})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash": the tail rewrite never happened for shard 0 — restore
	// the old segment, whose start duplicates the pack's content. The
	// 30 extra records appended after compaction are lost with the
	// rewritten tail (they were never in the old file), mirroring an
	// unacked in-flight batch.
	if err := os.WriteFile(filepath.Join(dir, segName(0)), before[segName(0)], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().OverlapRepairs; got != 1 {
		t.Fatalf("overlap repairs = %d, want 1", got)
	}
	// Shard 0 rolls back to its compaction point (pack only, empty
	// tail); shard 1 keeps everything. Verify against a fresh replay.
	ref, err := Create(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	// Replay both fill batches (each restarts its counter at 0); the
	// second batch's shard-0 records are lost with the unwritten tail.
	hosts := []string{"cdn.cookielaw.org", "consent.cookiebot.com", "quantcast.mgr.consensu.org"}
	replay := func(n int, dropShard0 bool) {
		for i := 0; i < n; i++ {
			c := sample(fmt.Sprintf("site-%03d.com", i%37), simtime.Day(i%300), hosts[i%len(hosts)])
			if i%11 == 0 {
				c.Failed = true
				c.Error = "connection refused"
			}
			if dropShard0 && ShardOf(c.FinalDomain, 2) == 0 {
				continue
			}
			ref.Record(c)
		}
	}
	replay(100, false)
	replay(30, true)
	got := indexed(t, re, capturedb.Query{IncludeFailed: true})
	want := indexed(t, ref, capturedb.Query{IncludeFailed: true})
	if !bytes.Equal(got, want) {
		t.Fatalf("post-repair store diverges from replay: %d vs %d bytes (pre-crash total %d bytes)",
			len(got), len(want), len(wantAll))
	}
}

// TestTornPackQuarantine corrupts the newest pack's footer and
// restores the pre-compaction tail: Open must quarantine the torn pack
// and recover every record from the tail bytes.
func TestTornPackQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 60)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	want := indexed(t, s, capturedb.Query{IncludeFailed: true})
	if _, err := s.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	packPath := filepath.Join(dir, packName(0, 0))
	raw, err := os.ReadFile(packPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(packPath, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(0)), before, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().TornPacks; got != 1 {
		t.Fatalf("torn packs = %d, want 1", got)
	}
	if _, err := os.Stat(packPath + ".corrupt"); err != nil {
		t.Fatalf("torn pack not quarantined: %v", err)
	}
	if got := indexed(t, re, capturedb.Query{IncludeFailed: true}); !bytes.Equal(got, want) {
		t.Fatal("records not recovered from the tail after pack quarantine")
	}
	if re.Len() != 60 {
		t.Fatalf("recovered %d records, want 60", re.Len())
	}
}

// TestCompactorTriggers drives the background compactor's size and age
// triggers with an injected clock.
func TestCompactorTriggers(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 50)

	now := time.Unix(1000, 0)
	c := s.StartCompactor(CompactConfig{
		MinTailBytes: 1, // any non-empty tail trips the size trigger
		Interval:     time.Millisecond,
		Now:          func() time.Time { return now },
	})
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("size trigger never fired")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	if got := s.Stats().PackedRecords; got != 50 {
		t.Fatalf("packed %d records, want 50", got)
	}

	// Age trigger: huge size floor, tiny age.
	fill(t, s, 10)
	c2 := s.StartCompactor(CompactConfig{
		MinTailBytes: 1 << 40,
		MaxTailAge:   time.Nanosecond,
		Interval:     time.Millisecond,
		Now:          func() time.Time { now = now.Add(time.Second); return now },
	})
	deadline = time.Now().Add(5 * time.Second)
	for s.Stats().Compactions < 2 {
		if time.Now().After(deadline) {
			t.Fatal("age trigger never fired")
		}
		time.Sleep(time.Millisecond)
	}
	c2.Close()
	if got := s.Stats().PackedRecords; got != 60 {
		t.Fatalf("packed %d records, want 60", got)
	}
}

// TestCompactPackMatchesScannedKeys checks that a pack whose posting
// lists come from the tail index is byte for byte the pack a builder
// makes by scanning every packed record for its keys, for a first pack
// and for one that continues a chain.
func TestCompactPackMatchesScannedKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for seq := 0; seq < 2; seq++ {
		fill(t, s, 90)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for i, sh := range s.shards {
			tail, err := os.ReadFile(filepath.Join(dir, segName(i)))
			if err != nil {
				t.Fatal(err)
			}
			want := filepath.Join(t.TempDir(), "want.pack")
			b, err := pack.NewBuilder(want, pack.Base{Records: sh.packedRecords, Bytes: sh.packedBytes, Hash: sh.packedHash})
			if err != nil {
				t.Fatal(err)
			}
			var k capturedb.Keys
			for len(tail) > 0 {
				line := tail[:bytes.IndexByte(tail, '\n')+1]
				tail = tail[len(line):]
				if _, err := capturedb.Canonical(line, &k); err != nil {
					t.Fatal(err)
				}
				var hosts []string
				for _, h := range k.Hosts {
					hosts = append(hosts, string(h))
				}
				meta := pack.RecordMeta{Day: int32(k.Day), Failed: k.Failed, Domain: string(k.Domain), Hosts: hosts}
				if err := b.Add(line, meta); err != nil {
					t.Fatal(err)
				}
			}
			p, err := b.Commit()
			if err != nil {
				t.Fatal(err)
			}
			p.Close()

			if _, err := s.CompactShard(i); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, packName(i, seq)))
			if err != nil {
				t.Fatal(err)
			}
			wantBytes, err := os.ReadFile(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBytes) {
				t.Fatalf("shard %d pack %d: compacted pack (%d bytes) differs from the scanned-keys pack (%d bytes)", i, seq, len(got), len(wantBytes))
			}
		}
	}
}

// TestCompactorPollsOneShard checks that one poll packs only the shard
// it polls, so the background loop spreads a store's compactions over
// the interval rather than packing every tail on one tick.
func TestCompactorPollsOneShard(t *testing.T) {
	s, err := Create(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 200)
	c := &Compactor{s: s, cfg: CompactConfig{MinTailBytes: 1}, firstSeen: make([]time.Time, 4)}

	for i := range s.shards {
		if s.Stats().Shards[i].TailRecords == 0 {
			t.Fatalf("shard %d has no tail records; the test needs all four filled", i)
		}
	}
	for i := range s.shards {
		c.poll(i)
		st := s.Stats()
		for j, sh := range st.Shards {
			if packed := sh.TailRecords == 0; packed != (j <= i) {
				t.Fatalf("after polling shards 0..%d: shard %d packed=%v (%d tail records)", i, j, packed, sh.TailRecords)
			}
		}
		if st.Compactions != int64(i+1) {
			t.Fatalf("after polling shards 0..%d: %d compactions, want %d", i, st.Compactions, i+1)
		}
	}
}

// TestCompactionPacing checks the pacer sleeps roughly in proportion
// to the bytes packed.
func TestCompactionPacing(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 80)

	var slept time.Duration
	c := s.StartCompactor(CompactConfig{
		MinTailBytes:    1,
		Interval:        time.Millisecond,
		PaceBytesPerSec: 1 << 20,
		Sleep:           func(d time.Duration) { slept += d },
	})
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("compaction never ran")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	st := s.Stats()
	wantSleep := time.Duration(st.PackedBytes * int64(time.Second) / (1 << 20))
	if slept < wantSleep/2 || st.PaceSleepSeconds <= 0 {
		t.Fatalf("paced sleep = %v (counter %.3fs), want about %v", slept, st.PaceSleepSeconds, wantSleep)
	}
}

// TestCompactionUnderConcurrentIngestAndQuery races writers, readers,
// and an aggressive compactor, then demands the result is equivalent
// to a serial never-compacted replay.
func TestCompactionUnderConcurrentIngestAndQuery(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	comp := s.StartCompactor(CompactConfig{MinTailBytes: 1 << 10, Interval: time.Millisecond})
	const writers, perWriter = 4, 100
	hosts := []string{"cdn.cookielaw.org", "consent.cookiebot.com"}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i
				s.Record(sample(fmt.Sprintf("site-%03d.com", k%37), simtime.Day(k%300), hosts[k%2]))
			}
		}(w)
	}
	qdone := make(chan struct{})
	go func() {
		defer close(qdone)
		for i := 0; i < 50; i++ {
			if _, err := s.Count(capturedb.Query{Domain: "site-001.com"}); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Count(capturedb.Query{RequestHost: "cdn.cookielaw.org", From: 10, To: 200}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-qdone
	comp.Close()

	if got := s.Len(); got != writers*perWriter {
		t.Fatalf("len = %d, want %d", got, writers*perWriter)
	}
	// Every record is visible exactly once across packs + tails.
	n, err := s.Count(capturedb.Query{IncludeFailed: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Fatalf("count = %d, want %d", n, writers*perWriter)
	}
	// Per-domain counts survive the pack/tail splice.
	for d := 0; d < 37; d++ {
		dom := fmt.Sprintf("site-%03d.com", d)
		want := 0
		for k := 0; k < writers*perWriter; k++ {
			if k%37 == d {
				want++
			}
		}
		got, err := s.Count(capturedb.Query{Domain: dom, IncludeFailed: true})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("domain %s: count %d, want %d", dom, got, want)
		}
	}
}

// TestCompactionAccounting re-checks the scanned+skipped invariant on
// a packed store: every query accounts for every record.
func TestCompactionAccounting(t *testing.T) {
	packed, _, _, _ := twinStores(t, 200, []int{100})
	base := packed.Stats()
	if _, err := packed.Count(capturedb.Query{Domain: "site-001.com", IncludeFailed: true}); err != nil {
		t.Fatal(err)
	}
	st := packed.Stats()
	if got := st.RowsScanned + st.RowsSkipped - base.RowsScanned - base.RowsSkipped; got != 200 {
		t.Fatalf("domain query accounted for %d rows, want 200", got)
	}
	if _, err := packed.Count(capturedb.Query{From: 1000}); err != nil {
		t.Fatal(err)
	}
	st2 := packed.Stats()
	if scanned := st2.RowsScanned - st.RowsScanned; scanned != 0 {
		t.Fatalf("out-of-range day query scanned %d rows, want 0 (pack day pruning)", scanned)
	}
	if skipped := st2.RowsSkipped - st.RowsSkipped; skipped != 200 {
		t.Fatalf("out-of-range day query skipped %d rows, want 200", skipped)
	}
}

// TestIndexOnlyCount: a count whose predicates are all index metadata
// — at most one key, day bounds, the failed flag — is answered from
// pack and tail posting lists without reading a record, and agrees
// with the rows Query returns; a vantage or a second key needs the
// record bodies.
func TestIndexOnlyCount(t *testing.T) {
	packed, _, _, _ := twinStores(t, 400, []int{150, 300}) // two packs and a tail per shard
	for _, tc := range []struct {
		q         capturedb.Query
		indexOnly bool
	}{
		{capturedb.Query{Domain: "site-001.com"}, true},
		{capturedb.Query{Domain: "site-001.com", IncludeFailed: true, From: 30}, true},
		{capturedb.Query{RequestHost: "cdn.cookielaw.org", From: 50, To: 250}, true},
		{capturedb.Query{RequestHost: "consent.cookiebot.com", HasTo: true}, true},
		{capturedb.Query{From: 100, To: 200, IncludeFailed: true}, true},
		{capturedb.Query{Domain: "site-002.com", RequestHost: "cdn.cookielaw.org"}, false},
		{capturedb.Query{RequestHost: "cdn.cookielaw.org", Vantage: "eu-cloud"}, false},
		{capturedb.Query{Vantage: "eu-cloud", From: 10}, false},
	} {
		rows := 0
		if err := packed.Query(tc.q, func(*capture.Capture) bool { rows++; return true }); err != nil {
			t.Fatal(err)
		}
		base := packed.Stats()
		n, err := packed.Count(tc.q)
		if err != nil || n != rows {
			t.Errorf("%+v: count %d, %v; Query returns %d rows", tc.q, n, err, rows)
		}
		st := packed.Stats()
		read := st.RowsScanned - base.RowsScanned
		if tc.indexOnly != (read == 0) && rows > 0 {
			t.Errorf("%+v: count read %d records, index-only = %v", tc.q, read, tc.indexOnly)
		}
		if got := read + st.RowsSkipped - base.RowsSkipped; got != 400 {
			t.Errorf("%+v: count accounted for %d of 400 records", tc.q, got)
		}
	}
}
