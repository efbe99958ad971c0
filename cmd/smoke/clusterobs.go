package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/obs/agg"
)

// clusterObsScenario exercises fleet-wide observability: three capd
// storage nodes and a capring proxy (all with -metrics), fleetd and
// two workers pushing their span exports to an obsd aggregation
// daemon, and obsd itself scraping every long-lived node. The run must
// produce:
//
//   - valid Prometheus exposition on every node's /metrics AND on
//     obsd's /cluster/metrics rollup;
//   - at least one fully-stitched cross-process trace: one trace id
//     carrying spans from fleetd, worker, capring, and capd with zero
//     orphans — the lease→work→push→ring→ingest chain reassembled
//     from four processes' exports;
//   - a tripped SLO burn-rate alert: far-future ordered pushes into
//     the ring's bounded reorder buffer induce sheds, and the shed
//     rate rule on obsd must transition to firing.
func clusterObsScenario() {
	const shards, numNodes = 4, 3
	dir := tempDir()

	// capring with a deliberately tiny reorder buffer: far-future
	// ordered pushes overflow it on demand, which is how the scenario
	// induces the sheds that must trip the burn-rate alert.
	r := bootRing(dir, numNodes, shards, []string{"-metrics"}, "-ingest-pending", "4")
	ringURL := r.proxy.url()
	var targets []string
	for i, name := range r.names {
		targets = append(targets, name+"=capd="+r.urls[i])
	}
	targets = append(targets, "ring=capring="+ringURL)

	// obsd scrapes the long-lived nodes on a tight interval and holds
	// one SLO rule: shed rate through the ring.
	obsd := boot(bin("obsd"), "-targets", strings.Join(targets, ","),
		"-interval", "100ms", "-metrics", "-addr", "127.0.0.1:0",
		"-slo", "name=shed,kind=rate,metric=repl_ingest_shed_total,threshold=0.5,fast=5s,slow=10s,fastburn=1,slowburn=1")
	obsdURL := obsd.url()

	// fleetd pushes its span export to obsd at drain and hands the obsd
	// URL to every worker via /config; the workers push theirs on exit,
	// the SIGTERM path included.
	fleetd, w1, w2 := bootFleet(ringURL, crawlWindow{domains: 600, shares: 60, lastDay: 0}, "2s", "-obsd", obsdURL)
	captures := awaitLedger(fleetd, 120*time.Second).captures
	if captures == 0 {
		fatalf("fleetd drained with zero captures")
	}
	stopWorkers(w1, w2)
	logf("fleet drained with %d captures; checking scrapes", captures)

	// 1. Every node's text exposition and the cluster rollup validate.
	for _, url := range append(slices.Clone(r.urls), ringURL, obsdURL) {
		requireMetrics(url, get(url+"/metrics"))
	}
	requireMetrics("obsd /cluster", get(obsdURL+"/cluster/metrics"),
		"cluster:repl_committed_records_total", "role:repl_node_up", "node:capstore_ingest_batches_total")
	var health agg.Health
	check(json.Unmarshal([]byte(get(obsdURL+"/cluster/healthz")), &health))
	for _, n := range health.Nodes {
		if !n.Up {
			fatalf("node %s down in /cluster/healthz: %+v", n.Name, health)
		}
	}
	logf("%d scrapes valid; waiting for a stitched trace", numNodes+2)

	// 2. A fully-stitched cross-process trace. The worker exports land
	// at exit and capd/capring spans ride the scrape cadence, so poll.
	wantSvcs := []string{"capd", "capring", "fleetd", "worker"}
	var stitched agg.TraceSummary
	deadline := time.Now().Add(20 * time.Second)
	for stitched.TID == "" {
		if time.Now().After(deadline) {
			fatalf("no trace stitched across %v within 20s: %s", wantSvcs, get(obsdURL+"/cluster/traces"))
		}
		var sums []agg.TraceSummary
		check(json.Unmarshal([]byte(get(obsdURL+"/cluster/traces")), &sums))
		for _, s := range sums {
			if s.Orphans == 0 && hasAll(s.Svcs, wantSvcs) {
				stitched = s
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	body := get(obsdURL + "/cluster/traces/" + stitched.TID)
	for _, svc := range wantSvcs {
		if !strings.Contains(body, "["+svc+"]") {
			fatalf("trace %s render missing a [%s] span:\n%s", stitched.TID, svc, body)
		}
	}
	logf("trace %s spans %d processes (%s), %d spans, 0 orphans",
		stitched.TID, len(stitched.Svcs), strings.Join(stitched.Svcs, ","), stitched.Spans)

	// 3. Induce sheds: ordered pushes at far-future sequences jam the
	// ring's 4-slot reorder buffer; everything past the bound sheds
	// with 503, and the shed-rate rule must trip.
	sheds := 0
	for i := 0; i < 30; i++ {
		resp, err := http.Post(fmt.Sprintf("%s/ingest?at=%d&n=1", ringURL, 9_000_000+i),
			"application/octet-stream", bytes.NewReader(nil))
		check(err)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			sheds++
		}
	}
	if sheds < 5 {
		fatalf("induced only %d sheds out of 30 far-future pushes; buffer never overflowed", sheds)
	}
	deadline = time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			fatalf("shed alert never fired: %s", get(obsdURL+"/cluster/alerts"))
		}
		var alerts []agg.Alert
		check(json.Unmarshal([]byte(get(obsdURL+"/cluster/alerts")), &alerts))
		if len(alerts) != 1 {
			fatalf("want one alert rule, got %+v", alerts)
		}
		if alerts[0].State == "firing" {
			logf("shed alert firing (fast burn %.1f, slow burn %.1f) after %d induced sheds",
				alerts[0].FastBurn, alerts[0].SlowBurn, sheds)
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	logf("ok — %d captures, %d valid scrapes, trace %s stitched across %s, shed alert tripped",
		captures, numNodes+2, stitched.TID, strings.Join(stitched.Svcs, ","))
}

func hasAll(have, want []string) bool {
	for _, w := range want {
		if !slices.Contains(have, w) {
			return false
		}
	}
	return true
}
