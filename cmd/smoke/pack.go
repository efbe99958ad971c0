package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/cmps"
)

// packScenario exercises the pack engine with a real capd: remote
// ingest under a deliberately aggressive (and write-paced, so passes
// are slow and a kill lands mid-pass) background compactor, a SIGKILL
// while the store is compacting, an idempotent full re-delivery after
// restart, a forced POST /compact, and a final comparison of the
// compacted store against a local never-compacted baseline. The full
// query sweep, a set of filtered queries, every shard's logical stream
// and the manifests must all be byte-identical, the reopened store
// must take the indexed open path on every shard, and /metrics must
// carry the pack_* families.
func packScenario() {
	const shards, total, batch = 4, 600, 20
	dir := tempDir()
	caps := mkCaptures(total)

	// Never-compacted baseline: same records, same order, local store.
	baseline, err := capstore.Create(filepath.Join(dir, "baseline"), shards)
	check(err)
	for _, c := range caps {
		baseline.Record(c)
	}

	// capd under test: tiny compaction threshold so packs form while
	// batches are still arriving, and a slow write pace so a pass is
	// almost certainly in flight when the SIGKILL lands.
	nodeDir := filepath.Join(dir, "store")
	capdArgs := []string{"-store", nodeDir, "-ingest", "-metrics", "-addr", "127.0.0.1:0",
		"-compact", "-compact-tail-bytes", "512", "-compact-interval", "2ms", "-compact-pace", "65536"}
	p := boot(bin("capd"), append([]string{"-init-shards", strconv.Itoa(shards)}, capdArgs...)...)
	cl := ingestClient(p.url())
	stats := func(url string) capstore.Stats {
		var st capstore.Stats
		check(json.Unmarshal([]byte(get(url+"/stats")), &st))
		return st
	}

	// Phase 1: stream the first half and require real compactions.
	half := total / 2
	push(cl, caps[:half], batch)
	deadline := time.Now().Add(20 * time.Second)
	for stats(p.url()).Compactions == 0 {
		if time.Now().After(deadline) {
			fatalf("no compaction within 20s of %d records (stats %+v)", half, stats(p.url()))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 2: keep streaming, then SIGKILL with the compactor hot. The
	// in-flight batch may die with the process — re-delivery heals it.
	push(cl, caps[half:total*3/4], batch)
	p.kill()
	logf("SIGKILLed capd mid-compaction at %d/%d records", total*3/4, total)

	// Restart on the same store: a half-written pack is quarantined, an
	// interrupted tail rewrite is completed, a torn tail is truncated —
	// whatever the kill left, open repairs it to a canonical prefix.
	p2 := boot(bin("capd"), capdArgs...)
	cl = ingestClient(p2.url())

	// Re-deliver everything from the start: per-record idempotency
	// drops what survived and appends exactly what the kill ate, in
	// canonical order.
	push(cl, caps, batch)

	// Forced pass via the admin trigger: everything left in the tails
	// folds into packs.
	compactRes, err := cl.Compact()
	check(err)
	if compactRes.Packs == 0 {
		fatalf("/compact left no packs: %+v", compactRes)
	}

	// The telemetry surface must expose the pack_* families as valid
	// exposition, with compactions actually booked.
	requireMetrics("capd", get(p2.url()+"/metrics"), "pack_compactions_total", "pack_packed_records_total",
		"pack_packed_bytes_total", "pack_packs", "pack_open_indexed_shards")

	if err := p2.stop(); err != nil {
		fatalf("capd shutdown: %v", err)
	}

	// Headline: reopen the compacted store locally and compare it
	// against the never-compacted baseline.
	st, err := capstore.Open(nodeDir)
	check(err)
	defer st.Close()
	nodeStats := st.Stats()
	if nodeStats.Packs == 0 {
		fatalf("reopened store has no packs")
	}
	for _, sh := range nodeStats.Shards {
		if sh.OpenPath != "indexed" {
			fatalf("shard %s took the %q open path; want indexed (stats %+v)", sh.Segment, sh.OpenPath, sh)
		}
	}
	if nodeStats.Records != int64(total) {
		fatalf("reopened store has %d records, want %d", nodeStats.Records, total)
	}

	// The sweep covers every access path: full scan, domain index,
	// host index, day-window pruning, and the failed filter.
	for qi, q := range []capturedb.Query{
		{IncludeFailed: true},
		{},
		{Domain: "site3.example", IncludeFailed: true},
		{Domain: "site11.example"},
		{RequestHost: cmps.Quantcast.Hostname()},
		{RequestHost: "assets2.example", From: 40, To: 220, HasTo: true},
		{From: 100, To: 200, HasTo: true, IncludeFailed: true},
		{From: 294, To: 294, HasTo: true},
	} {
		want, got := sweep(baseline.Query, q), sweep(st.Query, q)
		if len(want) == 0 {
			fatalf("query %d (%+v) matches nothing in the baseline: the sweep would compare empty to empty", qi, q)
		}
		if !bytes.Equal(want, got) {
			fatalf("query %d (%+v): compacted store returned %d bytes, baseline %d", qi, q, len(got), len(want))
		}
	}
	bm, err := baseline.Manifest()
	check(err)
	nm, err := st.Manifest()
	check(err)
	for s := range bm.Segments {
		if bm.Segments[s] != nm.Segments[s] {
			fatalf("manifest mismatch on segment %d: %+v vs %+v", s, nm.Segments[s], bm.Segments[s])
		}
		var bb, nb bytes.Buffer
		_, _, err = baseline.StreamShard(s, 0, &bb)
		check(err)
		_, _, err = st.StreamShard(s, 0, &nb)
		check(err)
		if !bytes.Equal(bb.Bytes(), nb.Bytes()) {
			fatalf("segment %d logical stream differs: %d bytes vs %d", s, nb.Len(), bb.Len())
		}
	}
	check(baseline.Close())
	logf("ok — %d records, %d packs across %d shards, survived SIGKILL mid-compaction byte-identical to the baseline",
		total, nodeStats.Packs, shards)
}

// sweep renders a query's matches as wire-format bytes for comparison.
func sweep(query func(capturedb.Query, func(*capture.Capture) bool) error, q capturedb.Query) []byte {
	var buf bytes.Buffer
	check(query(q, func(c *capture.Capture) bool {
		line, err := capturedb.Encode(c)
		check(err)
		buf.Write(line)
		return true
	}))
	return buf.Bytes()
}
