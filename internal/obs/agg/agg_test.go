package agg

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeNode serves an obs debug surface for one synthetic registry —
// what a capd/capring/consentd node exposes under -metrics.
func fakeNode(t *testing.T, reg *obs.Registry, tr *obs.Tracer) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(obs.Handler(reg, tr))
	t.Cleanup(srv.Close)
	return srv
}

func famByName(fams []obs.ExpositionFamily, name string) (obs.ExpositionFamily, bool) {
	for _, f := range fams {
		if f.Name == name {
			return f, true
		}
	}
	return obs.ExpositionFamily{}, false
}

func childValue(t *testing.T, f obs.ExpositionFamily, labels map[string]string) float64 {
	t.Helper()
	for _, m := range f.Metrics {
		if labelKey(m.Labels) == labelKey(labels) {
			if m.Value == nil {
				t.Fatalf("%s%v has no value", f.Name, labels)
			}
			return *m.Value
		}
	}
	t.Fatalf("%s has no child %v (have %+v)", f.Name, labels, f.Metrics)
	return 0
}

// TestHelpEscapeMatchesNode: a help string holding a backslash and a
// newline reads the same on a node's /metrics and in the cluster
// rollup on /cluster/metrics, both escaped as the text format asks.
func TestHelpEscapeMatchesNode(t *testing.T) {
	reg := obs.NewRegistry()
	obs.NewCounter(reg, "paths_total", `Paths under C:\data`+"\nper node.").Add(1)
	node := fakeNode(t, reg, nil)
	a, err := New(Config{Targets: []Target{{Name: "a", Role: "capd", URL: node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	a.ScrapeOnce()
	cluster := httptest.NewServer(Handler(a))
	defer cluster.Close()
	help := func(url, name string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(body), "\n") {
			if h, ok := strings.CutPrefix(line, "# HELP "+name+" "); ok {
				return h
			}
		}
		t.Fatalf("%s: no HELP line for %s in\n%s", url, name, body)
		return ""
	}
	const want = `Paths under C:\\data\nper node.`
	if got := help(node.URL+"/metrics", "paths_total"); got != want {
		t.Errorf("node HELP %q, want %q", got, want)
	}
	if got := help(cluster.URL+"/cluster/metrics", "cluster:paths_total"); got != want {
		t.Errorf("cluster HELP %q, want %q", got, want)
	}
}

// Two nodes with disjoint counter-vec children, different gauge values,
// and histograms with different bucket bounds must fold into one
// coherent cluster rollup.
func TestScrapeRollup(t *testing.T) {
	regA := obs.NewRegistry()
	obs.NewCounterVec(regA, "ops_total", "ops", "op").With("read").Add(2)
	obs.NewGaugeFunc(regA, "queue_depth", "depth", func() float64 { return 5 })
	hA := obs.NewHistogram(regA, "lat_seconds", "latency", []float64{0.1, 1})
	hA.Observe(0.05)
	hA.Observe(2)

	regB := obs.NewRegistry()
	obs.NewCounterVec(regB, "ops_total", "ops", "op").With("write").Add(3)
	obs.NewGaugeFunc(regB, "queue_depth", "depth", func() float64 { return 7 })
	hB := obs.NewHistogram(regB, "lat_seconds", "latency", []float64{0.5})
	hB.Observe(0.3)

	srvA := fakeNode(t, regA, nil)
	srvB := fakeNode(t, regB, nil)
	a, err := New(Config{Targets: []Target{
		{Name: "a", Role: "capd", URL: srvA.URL},
		{Name: "b", Role: "capring", URL: srvB.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	a.ScrapeOnce()

	fams := a.Rollup()
	ops, ok := famByName(fams, "cluster:ops_total")
	if !ok || len(ops.Metrics) != 2 {
		t.Fatalf("cluster:ops_total should keep both disjoint children: %+v", ops)
	}
	if got := childValue(t, ops, map[string]string{"op": "read"}); got != 2 {
		t.Errorf("cluster read ops = %v, want 2", got)
	}
	if got := childValue(t, ops, map[string]string{"op": "write"}); got != 3 {
		t.Errorf("cluster write ops = %v, want 3", got)
	}

	depth, _ := famByName(fams, "cluster:queue_depth")
	if got := childValue(t, depth, nil); got != 12 {
		t.Errorf("cluster queue depth = %v, want 12", got)
	}
	depthMax, ok := famByName(fams, "cluster:queue_depth:max")
	if !ok {
		t.Fatal("gauge rollup lost its :max companion")
	}
	if got := childValue(t, depthMax, nil); got != 7 {
		t.Errorf("cluster queue depth max = %v, want 7", got)
	}

	roleDepth, _ := famByName(fams, "role:queue_depth")
	if got := childValue(t, roleDepth, map[string]string{"role": "capring"}); got != 7 {
		t.Errorf("capring role depth = %v, want 7", got)
	}
	nodeOps, _ := famByName(fams, "node:ops_total")
	if got := childValue(t, nodeOps, map[string]string{"node": "a", "role": "capd", "op": "read"}); got != 2 {
		t.Errorf("node a ops = %v, want 2", got)
	}

	lat, ok := famByName(fams, "cluster:lat_seconds")
	if !ok || len(lat.Metrics) != 1 || lat.Metrics[0].Histogram == nil {
		t.Fatalf("cluster:lat_seconds did not merge: %+v", lat)
	}
	h := lat.Metrics[0].Histogram
	if h.Count != 3 {
		t.Errorf("merged count = %d, want 3", h.Count)
	}
	if len(h.Buckets) != 4 || !math.IsInf(h.Buckets[len(h.Buckets)-1].LE, 1) {
		t.Errorf("merged buckets should union {0.1,0.5,1,+Inf}: %+v", h.Buckets)
	}

	// The full rollup must render as a valid exposition.
	var buf strings.Builder
	if err := obs.WriteExposition(&buf, fams); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("rollup exposition invalid: %v", err)
	}

	if h := a.Health(); h.Status != "ok" || len(h.Nodes) != 2 {
		t.Fatalf("healthy cluster reports %+v", h)
	}
	srvB.Close()
	a.ScrapeOnce()
	h2 := a.Health()
	if h2.Status != "degraded" {
		t.Fatalf("down node did not degrade health: %+v", h2)
	}
	for _, n := range h2.Nodes {
		if n.Name == "b" && (n.Up || n.LastError == "") {
			t.Fatalf("down node b reported %+v", n)
		}
	}
}

func TestNewRejectsBadTargets(t *testing.T) {
	if _, err := New(Config{Targets: []Target{{Name: "", URL: "http://x"}}}); err == nil {
		t.Error("unnamed target accepted")
	}
	if _, err := New(Config{Targets: []Target{
		{Name: "a", URL: "http://x"},
		{Name: "a", URL: "http://y"},
	}}); err == nil {
		t.Error("duplicate target name accepted")
	}
}

// The HTTP surface end to end: valid exposition, trace listing after a
// push, 404/400/405 paths.
func TestHandlerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	obs.NewCounter(reg, "beats_total", "beats").Inc()
	node := fakeNode(t, reg, nil)
	a, err := New(Config{Targets: []Target{{Name: "n1", Role: "capd", URL: node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	a.ScrapeOnce()
	srv := httptest.NewServer(Handler(a))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := obs.ValidateExposition(resp.Body); err != nil {
		t.Fatalf("/cluster/metrics invalid: %v", err)
	}

	// An ephemeral process pushes its spans, then the trace is listed.
	tr := obs.NewTracer(obs.TracerConfig{Service: "fleetd"})
	sp := tr.Start("lease", obs.A("first", "0"), obs.A("attempt", "1"))
	tid := sp.Context().TraceID
	sp.End()
	if err := obs.PushSpans(srv.Client(), srv.URL+"/ingest/spans", tr); err != nil {
		t.Fatal(err)
	}
	var listed []TraceSummary
	lresp, err := http.Get(srv.URL + "/cluster/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if err := json.NewDecoder(lresp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].TID != tid {
		t.Fatalf("trace listing = %+v, want one trace %s", listed, tid)
	}
	tresp, err := http.Get(srv.URL + "/cluster/traces/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("known trace returned %d", tresp.StatusCode)
	}

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/cluster/traces/deadbeef", "", http.StatusNotFound},
		{"POST", "/ingest/spans", "{not json", http.StatusBadRequest},
		{"GET", "/ingest/spans", "", http.StatusMethodNotAllowed},
		{"GET", "/cluster/alerts", "", http.StatusOK},
		{"GET", "/cluster/healthz", "", http.StatusOK},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestParseRule(t *testing.T) {
	r, err := ParseRule("name=shed,kind=rate,metric=repl_ingest_shed_total,threshold=0.5,fast=10s,slow=1m,fastburn=2,slowburn=1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "shed" || r.Kind != "rate" || r.Metric != "repl_ingest_shed_total" ||
		r.Threshold != 0.5 || r.FastWindow != 10*time.Second || r.SlowWindow != time.Minute ||
		r.FastBurn != 2 || r.SlowBurn != 1 {
		t.Fatalf("parsed rule %+v", r)
	}
	if r.Quantile != 0.99 {
		t.Fatalf("quantile default = %v, want 0.99", r.Quantile)
	}

	for _, bad := range []string{
		"not-a-clause",
		"name=x,kind=bogus,metric=m,threshold=1",
		"name=x,kind=ratio,metric=m,threshold=0.1",        // ratio without denom
		"name=x,kind=rate,metric=m",                       // threshold missing
		"name=x,kind=rate,metric=m,threshold=1,fast=abc",  // bad duration
		"name=x,kind=rate,metric=m,threshold=1,mystery=1", // unknown key
		"kind=rate,metric=m,threshold=1",                  // name missing
		"name=x,kind=latency,metric=m,threshold=0",        // non-positive threshold
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}
}
