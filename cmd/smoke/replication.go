package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/capstore"
	"repro/internal/capstore/replica"
	"repro/internal/fleet"
)

// ring is a booted replicated store: capd storage nodes behind a
// capring proxy.
type ring struct {
	names, dirs, urls []string
	capdArgs          []string // what every node was booted with, besides -store/-init-shards/-addr
	capds             []*proc
	proxy             *proc
}

// bootRing starts n capd -ingest nodes with shards segments each under
// dir, and a capring (R=2, W=1) in front of them.
func bootRing(dir string, n, shards int, capdArgs []string, ringArgs ...string) *ring {
	const ringSeed = 5
	r := &ring{capdArgs: append([]string{"-ingest"}, capdArgs...)}
	var nodesFlag []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node-%d", i)
		ndir := filepath.Join(dir, name)
		p := boot(bin("capd"), append([]string{"-store", ndir, "-init-shards", strconv.Itoa(shards),
			"-addr", "127.0.0.1:0"}, r.capdArgs...)...)
		r.names = append(r.names, name)
		r.dirs = append(r.dirs, ndir)
		r.urls = append(r.urls, p.url())
		r.capds = append(r.capds, p)
		nodesFlag = append(nodesFlag, name+"="+p.url())
	}
	r.proxy = boot(bin("capring"), append([]string{"-nodes", strings.Join(nodesFlag, ","),
		"-shards", strconv.Itoa(shards), "-replicas", "2", "-quorum", "1",
		"-seed", strconv.Itoa(ringSeed), "-metrics", "-addr", "127.0.0.1:0"}, ringArgs...)...)
	return r
}

// revive restarts node i on the same store and the same address.
func (r *ring) revive(i int) {
	r.capds[i] = boot(bin("capd"), append([]string{"-store", r.dirs[i],
		"-addr", strings.TrimPrefix(r.urls[i], "http://")}, r.capdArgs...)...)
}

type ringHealth struct {
	Status string `json:"status"`
	replica.Stats
}

func (r *ring) health() ringHealth {
	var hz ringHealth
	check(json.Unmarshal([]byte(get(r.proxy.url()+"/healthz")), &hz))
	return hz
}

func (r *ring) nodeStatus(name string) replica.NodeStatus {
	hz := r.health()
	for _, n := range hz.Nodes {
		if n.Name == name {
			return n
		}
	}
	fatalf("node %s missing from /healthz: %+v", name, hz)
	return replica.NodeStatus{}
}

func countAll(nodeURL string) int {
	var payload struct {
		Count int `json:"count"`
	}
	check(json.Unmarshal([]byte(get(nodeURL+"/count")), &payload))
	return payload.Count
}

// replicationScenario exercises the replicated capture store: three
// capd storage nodes behind a capring proxy, fleetd ingesting through
// the ring, two workers. One storage node is SIGKILLed mid-lease —
// hard enough that its store may be left with a torn segment tail or a
// half-written pack — then restarted, and the run must still converge:
// the ring repairs the returned node and every node's owned segments
// end byte-identical to a single-process baseline crawl. The nodes run
// the background compactor with tiny thresholds, so the identity is
// checked over each shard's logical stream (packs + tail), not raw
// segment files. Ring telemetry must be valid exposition carrying the
// repl_* families, with at least one repair pass actually booked.
func replicationScenario() {
	const shards, numNodes = 8, 3
	window := crawlWindow{domains: 1_500, shares: 150, lastDay: 1}
	dir := tempDir()
	baseDir := filepath.Join(dir, "baseline")
	base := buildBaseline(baseDir, shards, window)

	// An aggressive background compactor folds segments into packs
	// while the fleet is actively writing — the byte-identity check at
	// the end must hold through live compaction. The deliberately tiny
	// handoff bound makes the injected outage overflow to dirty and
	// forces an anti-entropy repair (hints alone could not heal a torn
	// tail).
	r := bootRing(dir, numNodes, shards,
		[]string{"-compact", "-compact-tail-bytes", "4096", "-compact-interval", "25ms"},
		"-max-handoff", "1", "-handoff-dir", filepath.Join(dir, "handoff"))
	ringURL := r.proxy.url()

	// Placement decides the victim: the node owning the most segments,
	// so the outage is guaranteed to bite.
	var info replica.RingInfo
	check(json.Unmarshal([]byte(get(ringURL+"/ring")), &info))
	owned := make(map[string]int)
	for _, placed := range info.Placement {
		for _, n := range placed {
			owned[n]++
		}
	}
	victim := 0
	for i, n := range r.names {
		if owned[n] > owned[r.names[victim]] {
			victim = i
		}
	}
	vname := r.names[victim]
	logf("ring placement %v; victim %s owns %d/%d segments", info.Placement, vname, owned[vname], shards)

	fleetd, w1, w2 := bootFleet(ringURL, window, "1s")

	// Chaos: SIGKILL the victim capd once leases are in flight and the
	// ring has committed records — mid-lease, mid-ingest, no goodbye.
	status := fleet.NewClient(fleetd.url())
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			fatalf("no lease observed within 30s; fleet never started")
		}
		if fleetd.exited() {
			fatalf("fleetd drained before the injected node kill; grow the fixture window")
		}
		st, err := status.Status()
		if err == nil && st.Active >= 1 && r.health().Committed > 0 {
			r.capds[victim].kill()
			logf("SIGKILLed %s with %d leases active", vname, st.Active)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Let the outage bite: the writer must mark the node down and, with
	// -max-handoff 1, overflow its hints to dirty (repair scheduled).
	deadline = time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			fatalf("writer never flagged %s dirty: %+v", vname, r.health())
		}
		if fleetd.exited() {
			fatalf("fleetd drained before %s went dirty; grow the fixture window", vname)
		}
		if n := r.nodeStatus(vname); !n.Up && n.Dirty {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	logf("%s is down and dirty; restarting it", vname)

	// A torn segment tail from the SIGKILL is repaired on open (still a
	// canonical prefix), and the ring's anti-entropy repair re-streams
	// whatever is missing.
	r.revive(victim)

	// The drain itself proves availability: the fleet kept ingesting
	// through the outage (W=1 acks via the surviving replica).
	l := awaitLedger(fleetd, 120*time.Second)
	checkLedger(l, base)
	stopWorkers(w1, w2)

	// Repair convergence: every node up, clean, and with an empty
	// handoff queue; then each node's record count must equal the sum
	// of its owned baseline segments.
	baseSegs := readSegments(baseDir, shards)
	wantCount := make(map[string]int)
	for s, placed := range info.Placement {
		for _, n := range placed {
			wantCount[n] += bytes.Count(baseSegs[s], []byte("\n"))
		}
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			fatalf("ring never converged: %+v", r.health())
		}
		hz := r.health()
		settled := hz.Status == "ok"
		for _, n := range hz.Nodes {
			if !n.Up || n.Dirty || n.Handoff != 0 {
				settled = false
			}
		}
		for i, name := range r.names {
			settled = settled && countAll(r.urls[i]) == wantCount[name]
		}
		if settled {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	logf("ring converged; per-node counts match the baseline placement")

	// Ring telemetry: valid exposition, the repl_* families present,
	// the canonical commit counter booked every capture, and at least
	// one repair pass actually ran against the revived node.
	text := get(ringURL + "/metrics")
	requireMetrics("capring", text, "repl_node_up", "repl_handoff_depth", "repl_repairs_total",
		"repl_quorum_wait_seconds", "repl_committed_records_total")
	if n := int64(metricValue(text, "repl_committed_records_total")); n != l.captures {
		fatalf("ring committed %d records, fleetd booked %d captures", n, l.captures)
	}
	if n := metricValue(text, `repl_repairs_total{node="`+vname+`"}`); n < 1 {
		fatalf("no repair pass booked for %s:\n%s", vname, text)
	}
	if n := metricValue(text, `repl_handoff_dropped_total{node="`+vname+`"}`); n < 1 {
		fatalf("no handoff overflow booked for %s (outage never went dirty):\n%s", vname, text)
	}

	// Graceful shutdown flushes every store; then the headline: each
	// node's owned segments are byte-identical to the baseline, and
	// unplaced segments are empty. The nodes compacted live, so the
	// comparison is over each shard's *logical* stream (packs + tail
	// re-spliced by StreamShard) — which must be byte-for-byte the
	// never-compacted baseline's segment file.
	if err := r.proxy.stop(); err != nil {
		fatalf("capring shutdown: %v", err)
	}
	for i, p := range r.capds {
		if err := p.stop(); err != nil {
			fatalf("capd %s shutdown: %v", r.names[i], err)
		}
	}
	var totalOwned, totalPacks int
	for i, name := range r.names {
		st, err := capstore.Open(r.dirs[i])
		check(err)
		totalPacks += st.Stats().Packs
		for s := 0; s < shards; s++ {
			var buf bytes.Buffer
			_, _, err := st.StreamShard(s, 0, &buf)
			check(err)
			got := buf.Bytes()
			if slices.Contains(info.Placement[s], name) {
				if !bytes.Equal(got, baseSegs[s]) {
					fatalf("%s segment %d logical stream differs from baseline: %d bytes vs %d", name, s, len(got), len(baseSegs[s]))
				}
				totalOwned += len(got)
			} else if len(got) != 0 {
				fatalf("%s segment %d has %d bytes but is not placed there", name, s, len(got))
			}
		}
		check(st.Close())
	}
	if totalPacks == 0 {
		fatalf("no node store holds packs: live compaction never ran (lower -compact-tail-bytes)")
	}
	logf("ok — %d shares, %d captured, %s repaired after SIGKILL, %d owned logical bytes identical across the ring (%d packs)",
		l.submitted, l.captures, vname, totalOwned, totalPacks)
}
