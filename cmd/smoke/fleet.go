package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/fleet"
)

// fleetScenario exercises the distributed crawl: a capd storage
// backend (-ingest -metrics), a fleetd coordinator (-metrics) and two
// `crawl -fleet` workers over a small fixture window, one worker
// SIGKILLed mid-run. The headline invariant is that the fleet's
// capture store is byte-identical to a single-process StreamPlatform
// run over the same window; the ledger must balance against that
// baseline and both /metrics endpoints must stay valid.
func fleetScenario() {
	const shards = 4
	window := crawlWindow{domains: 1_500, shares: 150, lastDay: 1}
	dir := tempDir()
	baseDir := filepath.Join(dir, "baseline")
	base := buildBaseline(baseDir, shards, window)

	storeDir := filepath.Join(dir, "fleetstore")
	capd := boot(bin("capd"), "-store", storeDir, "-init-shards", strconv.Itoa(shards),
		"-ingest", "-metrics", "-addr", "127.0.0.1:0")
	fleetd, w1, w2 := bootFleet(capd.url(), window, "1s")

	// Chaos: SIGKILL w2 as soon as the coordinator has leases in flight.
	// If the kill lands mid-lease its chunk expires and is reassigned;
	// either way the fleet must drain to the same bytes.
	status := fleet.NewClient(fleetd.url())
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			fatalf("no lease observed within 30s; fleet never started")
		}
		if fleetd.exited() {
			fatalf("fleetd drained before the injected worker kill; grow the fixture window")
		}
		if st, err := status.Status(); err == nil && st.Active >= 1 {
			w2.kill() // no goodbye, the lease just stops heartbeating
			logf("killed w2 with %d leases active, %d/%d chunks pending", st.Active, st.Pending, st.Chunks)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Coordinator telemetry must be valid exposition and carry the fleet
	// families while the run is live.
	requireMetrics("fleetd", get(fleetd.url()+"/metrics"),
		"fleet_leases_granted_total", "fleet_chunks_pending", "fleet_workers_live")

	l := awaitLedger(fleetd, 60*time.Second)
	checkLedger(l, base)
	stopWorkers(w1)

	// capd telemetry: valid exposition, and the ingest path actually
	// carried the records.
	text := get(capd.url() + "/metrics")
	requireMetrics("capd", text, "capstore_ingest_records_total")
	if n := int64(metricValue(text, "capstore_ingest_records_total")); n != l.captures {
		fatalf("capd ingested %d records, fleetd booked %d captures", n, l.captures)
	}

	// Graceful capd shutdown flushes and closes the store; then the
	// headline: byte-identical segments.
	if err := capd.stop(); err != nil {
		fatalf("capd shutdown: %v", err)
	}
	want, got := readSegments(baseDir, shards), readSegments(storeDir, shards)
	var total int
	for s := range want {
		if !bytes.Equal(want[s], got[s]) {
			fatalf("segment %d differs: baseline %d bytes, fleet %d bytes", s, len(want[s]), len(got[s]))
		}
		total += len(want[s])
	}
	logf("ok — %d shares, %d captured, %d dead-lettered, %d leases reassigned after SIGKILL, %d segments byte-identical (%d bytes)",
		l.submitted, l.captures, l.dead, l.reassigned, shards, total)
}
