package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/simtime"
)

// obsScenario exercises the unified telemetry surface against a real
// capd: it writes a fixture capture store, boots `capd -store …
// -metrics`, drives queries through the public client, and then
// verifies every debug endpoint — /metrics parses as Prometheus text
// and carries the store families, the same registry is served as
// /metrics.json, /debug/trace shows the query spans, /debug/pprof/
// answers, and /healthz carries the telemetry summary.
func obsScenario() {
	// The fixture: 30 domains over 200 days, every capture loading
	// cdn.cookielaw.org, every 11th failed.
	const fixtureRecords = 120
	storeDir := filepath.Join(tempDir(), "store")
	st, err := capstore.Create(storeDir, 4)
	check(err)
	for i := 0; i < fixtureRecords; i++ {
		domain := fmt.Sprintf("site-%03d.com", i%30)
		st.Record(&capture.Capture{
			SeedURL:     "http://" + domain + "/",
			FinalDomain: domain,
			Day:         simtime.Day(i % 200),
			Vantage:     capture.EUCloud,
			Failed:      i%11 == 0,
			Requests: []capture.Request{
				{Host: domain, Status: 200},
				{Host: "cdn.cookielaw.org", Status: 200},
			},
		})
	}
	check(st.Close())

	capd := boot(bin("capd"), "-store", storeDir, "-metrics", "-addr", "127.0.0.1:0")
	base := capd.url()
	cl := capstore.NewClient(base)

	// Generate telemetry through the public query API: one indexed
	// domain query, one indexed host query, one count.
	var rows int
	check(cl.Query(capturedb.Query{Domain: "site-001.com"}, 0, 0, func(*capture.Capture) bool {
		rows++
		return true
	}))
	if rows == 0 {
		fatalf("domain query returned no rows")
	}
	n, err := cl.Count(capturedb.Query{RequestHost: "cdn.cookielaw.org"})
	check(err)
	if n == 0 {
		fatalf("host count returned 0")
	}

	// /metrics must be valid exposition text and carry the store,
	// tracer and limiter families.
	requireMetrics("capd", get(base+"/metrics"),
		fmt.Sprintf("capstore_records_total %d", fixtureRecords),
		"capstore_queries_total 2",
		"capstore_query_seconds_bucket",
		"obs_trace_spans",
		"resilience_http_admitted_total")

	// The JSON mirror and the span export must agree with what we did.
	if js := get(base + "/metrics.json"); !strings.Contains(js, `"capstore_queries_total"`) {
		fatalf("/metrics.json missing capstore_queries_total:\n%s", js)
	}
	trace := get(base + "/debug/trace")
	for _, want := range []string{
		`"id":"query[path=domain-index]"`,
		`"id":"query[path=host-index]"`,
	} {
		if !strings.Contains(trace, want) {
			fatalf("/debug/trace missing %q:\n%s", want, trace)
		}
	}
	get(base + "/debug/pprof/")

	// /healthz gains the telemetry summary when -metrics is on.
	h, err := cl.Health()
	check(err)
	if h.Records != fixtureRecords {
		fatalf("healthz records = %d, want %d", h.Records, fixtureRecords)
	}
	if h.Telemetry == nil {
		fatalf("healthz telemetry summary missing: %+v", h)
	}
	if h.Telemetry.UptimeSeconds <= 0 {
		fatalf("healthz uptime = %v, want > 0", h.Telemetry.UptimeSeconds)
	}
	if len(h.Telemetry.SlowestQueryBuckets) == 0 {
		fatalf("healthz slowest query buckets empty after %d queries", 2)
	}

	check(capd.stop())
	logf("ok (%d records, %d rows from site-001.com, %d cdn.cookielaw.org captures)", fixtureRecords, rows, n)
}
