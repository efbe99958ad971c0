package decision

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gvl"
	"repro/internal/obs"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	h := gvl.GenerateHistory(gvl.HistoryConfig{
		Seed: 7, Versions: 20, InitialVendors: 60, PeakVendors: 200,
	})
	srv := NewServer(ServerConfig{
		Resolver: NewResolver(gvl.UpgradeHistory(h, gvl.DefaultV2UpgradeConfig())),
		Registry: obs.NewRegistry(),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// badBatchLines are lines the canonical grammar rejects.
var badBatchLines = []string{
	``, `{}`, `{"v":1}`, `{"p":1,"v":2}`, `[1,2]`,
	`{"t":"abc","v":1,"p":2} `, `{"v":1,"p":2}x`,
	`{"t":"unterminated,"v":1,"p":2}`,
	"{\"t\":\"a\x00b\",\"v\":1,\"p\":2}",
	`{"v":99999999999999999999,"p":1}`,
	`{"v":-1,"p":2}`, `{"v":1.5,"p":2}`,
	`{ "v":1,"p":2}`, `{"v":1, "p":2}`,
	`{"v":007,"p":01}`, `{"v":1,"p":00}`,
	`{"v":2147483648,"p":1}`, `{"v":1,"p":2147483649}`,
}

func TestParseBatchLine(t *testing.T) {
	tc, v, p, err := parseBatchLine([]byte(`{"t":"COtybn4PA","v":12,"p":3}`))
	if err != nil || string(tc) != "COtybn4PA" || v != 12 || p != 3 {
		t.Fatalf("full line: tc=%q v=%d p=%d err=%v", tc, v, p, err)
	}
	tc, v, p, err = parseBatchLine([]byte(`{"v":650,"p":10}`))
	if err != nil || tc != nil || v != 650 || p != 10 {
		t.Fatalf("sticky line: tc=%q v=%d p=%d err=%v", tc, v, p, err)
	}
	tc, v, p, err = parseBatchLine([]byte(`{"v":2147483647,"p":0}`))
	if err != nil || tc != nil || v != 1<<31-1 || p != 0 {
		t.Fatalf("range ends: tc=%q v=%d p=%d err=%v", tc, v, p, err)
	}
	for _, bad := range badBatchLines {
		if _, _, _, err := parseBatchLine([]byte(bad)); err == nil {
			t.Errorf("parseBatchLine(%q) accepted", bad)
		}
	}
}

// FuzzBatchLine holds the parser to the grammar: a line it accepts is
// exactly the canonical rendering of what it returned.
func FuzzBatchLine(f *testing.F) {
	for _, s := range badBatchLines {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"t":"COtybn4PA","v":12,"p":3}`))
	f.Add([]byte(`{"v":650,"p":10}`))
	pop, err := GeneratePopulation(PopulationConfig{Seed: 3, Size: 4, MaxVLV: 20})
	if err != nil {
		f.Fatal(err)
	}
	body := PrerenderBodies(LoadConfig{Population: pop, BatchSize: 4, Bodies: 1})[0]
	f.Add(body[:bytes.IndexByte(body, '\n')])
	f.Fuzz(func(t *testing.T, line []byte) {
		tc, v, p, err := parseBatchLine(line)
		if err != nil {
			return
		}
		want := `{"v":` + strconv.Itoa(v) + `,"p":` + strconv.Itoa(p) + `}`
		if tc != nil {
			want = `{"t":"` + string(tc) + `","v":` + strconv.Itoa(v) + `,"p":` + strconv.Itoa(p) + `}`
		}
		if string(line) != want {
			t.Fatalf("parseBatchLine(%q) = (%q, %d, %d), which renders as %q", line, tc, v, p, want)
		}
	})
}

func TestServerDecide(t *testing.T) {
	_, ts := testServer(t)
	raw := mustEncodeV2(t, acceptAllV2(t, 100))

	resp, err := http.Get(ts.URL + "/decide?tc=" + raw + "&vendor=3&purpose=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var dr decideResponse
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatal(err)
	}
	if dr.WireVersion != 2 || dr.VendorListVersion != 30 {
		t.Fatalf("response header: %+v", dr)
	}
	if dr.GVLResolved == 0 {
		t.Fatalf("GVL did not resolve: %+v", dr)
	}
	// Missing params and bad strings are client errors.
	for _, q := range []string{"", "?tc=xyz", "?tc=" + raw + "&vendor=a&purpose=1"} {
		r2, err := http.Get(ts.URL + "/decide" + q)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /decide%s: status %s, want 400", q, r2.Status)
		}
	}
}

func TestServerBatch(t *testing.T) {
	srv, ts := testServer(t)
	raw := mustEncodeV2(t, acceptAllV2(t, 100))
	good := func(k int) string {
		var b strings.Builder
		b.WriteString(`{"t":"` + raw + `","v":3,"p":1}` + "\n")
		for i := 1; i < k; i++ {
			b.WriteString(`{"v":5,"p":2}` + "\n")
		}
		return b.String()
	}

	body := `{"t":"` + raw + `","v":3,"p":1}` + "\n" +
		`{"v":5,"p":2}` + "\n" +
		`{"v":9999,"p":1}` + "\n"
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var out strings.Builder
	if _, err := io.Copy(&out, resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d answer lines: %q", len(lines), out.String())
	}
	// Vendor 9999 is outside every section and list: denied.
	if lines[2] != `{"b":"N"}` {
		t.Errorf("line 3 = %q, want denial", lines[2])
	}
	for _, l := range lines {
		if len(l) != BatchAnswerLen-1 {
			t.Errorf("answer line %q is %d bytes, want %d", l, len(l), BatchAnswerLen-1)
		}
	}
	if got := srv.decisions.Load(); got != 3 {
		t.Errorf("server counted %d decisions, want 3", got)
	}

	// An answer that fits the pooled writer is sent with its length,
	// not in chunks (net/http measures only answers under 2 KiB itself).
	r1, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(good(512)))
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, r1.Body)
	r1.Body.Close()
	if err != nil || n != 512*BatchAnswerLen || r1.ContentLength != n || len(r1.TransferEncoding) != 0 {
		t.Errorf("512 answers: %d bytes, Content-Length %d, Transfer-Encoding %q, err %v",
			n, r1.ContentLength, r1.TransferEncoding, err)
	}

	// A batch of more answers than the writer holds streams them all
	// while its lines are still arriving.
	r4, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(good(20000)))
	if err != nil {
		t.Fatal(err)
	}
	n, err = io.Copy(io.Discard, r4.Body)
	r4.Body.Close()
	if err != nil || r4.StatusCode != http.StatusOK || n != 20000*BatchAnswerLen {
		t.Errorf("20000 answers: status %s, %d bytes, err %v", r4.Status, n, err)
	}

	// First line without a consent string is a 400.
	r2, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson",
		strings.NewReader(`{"v":1,"p":1}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("headless batch: status %s, want 400", r2.Status)
	}
	// GET is rejected.
	r3, err := http.Get(ts.URL + "/v1/batch")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: status %s, want 405", r3.Status)
	}

	// A line that cannot be answered ends the batch. While every answer
	// is still buffered the client gets a 400 carrying the error; once
	// answers have been sent it gets them and the stream ends. Either
	// way the error and the decisions made are counted.
	for _, tc := range []struct {
		name       string
		answered   int
		wantStatus int
		wantBody   int // answer bytes, -1 for an error text
	}{
		{"buffered", 3, http.StatusBadRequest, -1},
		{"sent", 8000, http.StatusOK, 8000 * BatchAnswerLen},
	} {
		t.Run("bad line "+tc.name, func(t *testing.T) {
			srv, ts := testServer(t)
			body := good(tc.answered) + `{"v":5,"p":x}` + "\n" + `{"v":6,"p":1}` + "\n"
			resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			out, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %s, want %d (body %.80q)", resp.Status, tc.wantStatus, out)
			}
			if tc.wantBody < 0 {
				if !strings.Contains(string(out), "expected integer") {
					t.Errorf("400 body %q does not carry the parse error", out)
				}
			} else if len(out) != tc.wantBody {
				t.Errorf("got %d answer bytes, want %d", len(out), tc.wantBody)
			}
			if got := srv.decisions.Load(); got != int64(tc.answered) {
				t.Errorf("server counted %d decisions, want %d", got, tc.answered)
			}
			if got := srv.errors.Load(); got != 1 {
				t.Errorf("server counted %d errors, want 1", got)
			}
			if got := srv.m.batchPerReq.Snapshot().Count; got != 1 {
				t.Errorf("batch histogram saw %d requests, want 1", got)
			}
		})
	}
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) EnableFullDuplex() error     { return nil }

// TestBatchAllocations pins what one 512-decision batch allocates when
// served in process: the handler's line and answer buffers come from
// pools, so what is left is the request plumbing around it.
func TestBatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const batches, perBatch = 350, 512
	// One P: a sync.Pool caches per P, so a goroutine moved to another
	// P misses it and reallocates both 64 KiB buffers (374 B a batch
	// over this run) though nothing regressed.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, _ := testServer(t)
	pop, err := GeneratePopulation(PopulationConfig{Seed: 3, Size: 300, MaxVLV: 20})
	if err != nil {
		t.Fatal(err)
	}
	bodies := PrerenderBodies(LoadConfig{Population: pop, BatchSize: 512, Bodies: 8})
	h := srv.Handler()
	w := &discardWriter{h: http.Header{}}
	serve := func(reqs []*http.Request) {
		for _, r := range reqs {
			h.ServeHTTP(w, r)
		}
	}
	requests := func(k int) []*http.Request {
		reqs := make([]*http.Request, k)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(bodies[i%len(bodies)]))
		}
		return reqs
	}
	serve(requests(len(bodies))) // compile every string once
	reqs := requests(batches)
	before := srv.decisions.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	serve(reqs)
	runtime.ReadMemStats(&m1)
	if got := srv.decisions.Load() - before; got != batches*512 {
		t.Fatalf("served %d decisions, want %d", got, batches*512)
	}
	per := (m1.TotalAlloc - m0.TotalAlloc) / batches
	t.Logf("a batch allocates %d B", per)
	if per > perBatch {
		t.Errorf("a batch allocates %d B, want at most %d", per, perBatch)
	}
}

func TestServerFilter(t *testing.T) {
	_, ts := testServer(t)
	c := acceptAllV2(t, 50)
	delete(c.VendorConsent, 7)
	raw := mustEncodeV2(t, c)

	req := `{"t":"` + raw + `","purpose":1,"vendors":[3,7,20,51]}`
	resp, err := http.Post(ts.URL+"/v1/filter", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var fr filterResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if fr.Checked != 4 {
		t.Errorf("checked = %d, want 4", fr.Checked)
	}
	// Vendor 7 lost consent; 51 is out of range; 3 and 20 pass the
	// string but must also be registered on the resolved list, so just
	// assert the denials are absent.
	for _, v := range fr.Allowed {
		if v == 7 || v == 51 {
			t.Errorf("vendor %d allowed, want denied", v)
		}
	}

	r2, err := http.Post(ts.URL+"/v1/filter", "application/json", strings.NewReader(`{"vendors":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty filter: status %s, want 400", r2.Status)
	}
}

func TestServerHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.GVL.Versions != 20 || h.GVL.MinVersion != 1 {
		t.Errorf("GVL health: %+v", h.GVL)
	}
	if h.Cache.Capacity == 0 {
		t.Errorf("cache health empty: %+v", h.Cache)
	}
}

// TestLoadDriver runs the full loop: generate a population, boot a
// server, drive a small load, then validate every sampled batch answer
// against the naive path.
func TestLoadDriver(t *testing.T) {
	srv, ts := testServer(t)
	pop, err := GeneratePopulation(PopulationConfig{Seed: 3, Size: 300, MaxVLV: 20})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LoadConfig{
		ServerURL:  ts.URL,
		Population: pop,
		Workers:    2,
		Decisions:  4000,
		BatchSize:  128,
		Bodies:     8,
	}
	res, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions < 4000 {
		t.Fatalf("only %d decisions", res.Decisions)
	}
	if res.DecisionsPerSec <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("implausible result: %+v", res)
	}
	var answered int64
	for _, n := range res.Bases {
		answered += n
	}
	if answered != res.Decisions {
		t.Fatalf("basis counts %v do not sum to %d", res.Bases, res.Decisions)
	}

	vr, err := ValidateAgainstNaive(cfg, srv.resolver, 4)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Checked != 4*128 {
		t.Fatalf("validated %d answers, want %d", vr.Checked, 4*128)
	}
	if vr.Mismatches != 0 {
		t.Fatalf("%d mismatches vs naive: %s", vr.Mismatches, vr.FirstMismatch)
	}
}

// TestRunLoadChecksEveryAnswer: a batch answered short, one whose
// answers end in a partial line, and one whose body breaks off are
// errors, not fewer decisions.
func TestRunLoadChecksEveryAnswer(t *testing.T) {
	pop, err := GeneratePopulation(PopulationConfig{Seed: 3, Size: 50, MaxVLV: 20})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 16
	answer := string(batchAnswers[BasisConsent])
	for _, tc := range []struct {
		name  string
		serve func(w http.ResponseWriter)
	}{
		{"short batch", func(w http.ResponseWriter) {
			io.WriteString(w, strings.Repeat(answer, batch-1))
		}},
		{"partial line", func(w http.ResponseWriter) {
			io.WriteString(w, strings.Repeat(answer, batch-1)+answer[:4])
		}},
		{"broken body", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(batch*BatchAnswerLen))
			io.WriteString(w, strings.Repeat(answer, batch/2))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				tc.serve(w)
			}))
			defer ts.Close()
			res, err := RunLoad(LoadConfig{ServerURL: ts.URL, Population: pop, Workers: 1, Decisions: batch, BatchSize: batch, Bodies: 1})
			if err == nil {
				t.Fatalf("load run passed: %+v", res)
			}
			t.Log(err)
		})
	}
}
