package analytics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/cmps"
	"repro/internal/gvl"
	"repro/internal/simtime"
)

// testGVL keeps the GVL view small and fast; both sides of every
// comparison must use the same config or the invariant is vacuous.
var testGVL = gvl.HistoryConfig{Seed: 7, Versions: 24, InitialVendors: 30, PeakVendors: 60}

func testConfig() Config { return Config{GVL: testGVL} }

// testCapture fabricates capture i of a deterministic stream: a dozen
// domains drifting between CMPs across the window, with CMP-less
// pages and failures mixed in.
func testCapture(i int) *capture.Capture {
	rng := rand.New(rand.NewSource(int64(i) * 2654435761))
	domain := fmt.Sprintf("site%d.example", rng.Intn(12))
	day := rng.Intn(simtime.NumDays)
	c := &capture.Capture{
		SeedURL:     fmt.Sprintf("https://%s/page/%d", domain, i),
		FinalURL:    "https://" + domain + "/",
		FinalDomain: domain,
		Day:         simtime.Day(day),
		Vantage:     capture.EUCloud,
		Config:      "default",
		Status:      200,
	}
	if rng.Intn(3) == 0 {
		c.Vantage = capture.USCloud
	}
	switch rng.Intn(5) {
	case 0: // CMP-less page
	case 1:
		c.Failed = true
		c.Error = "timeout"
	default:
		id := cmps.ID(1 + rng.Intn(int(cmps.Count)))
		c.Requests = []capture.Request{{Host: id.Hostname(), Path: "/cmp.js", Status: 200}}
	}
	return c
}

// batchSnapshots replays exactly the given committed prefix through a
// fresh store and the batch engine — the `analyze -store` path — and
// returns every view's bytes at that cursor.
func batchSnapshots(t *testing.T, committed []*capture.Capture, nshards int) map[string][]byte {
	t.Helper()
	store, err := capstore.Create(t.TempDir(), nshards)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, c := range committed {
		store.Record(c)
	}
	eng, err := BatchEngine(store, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if eng.Cursor() != int64(len(committed)) {
		t.Fatalf("batch cursor = %d, want %d", eng.Cursor(), len(committed))
	}
	snaps, err := eng.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// TestPrefixReplayByteIdentity is the headline invariant: at every
// ingest commit cursor, the incremental engine fed by the ordered
// ingest path's OnCommit tap serves views byte-for-byte identical to
// the batch engine run over a store truncated to that cursor — even
// though batches arrive out of order and the tap interleaves shards.
func TestPrefixReplayByteIdentity(t *testing.T) {
	const (
		nshards = 4
		total   = 301
		batch   = 7
	)
	store, err := capstore.Create(t.TempDir(), nshards)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	live := NewEngine(testConfig())
	scan := rowScanner{det: live.det, names: make(map[string]string)}
	var committed []*capture.Capture
	ing, err := capstore.NewIngester(store, capstore.IngestConfig{
		OnCommit: func(line []byte, k *capturedb.Keys) {
			c, err := capturedb.Decode(line)
			if err != nil {
				t.Fatal(err)
			}
			committed = append(committed, c)
			live.applyRows(capstore.ShardOf(k.Domain, nshards), []analysis.Row{scan.rowOf(k)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Slice the ordered stream into batches and deliver them shuffled:
	// the reorder buffer must still commit in total order, so the tap
	// sees the same prefix sequence a crash-free coordinator produced.
	type span struct{ at, n int }
	var spans []span
	for at := 0; at < total; at += batch {
		n := batch
		if at+n > total {
			n = total - at
		}
		spans = append(spans, span{at, n})
	}
	// Shuffle within sliding windows: enough disorder to exercise the
	// reorder buffer on most batches, while commits still land often
	// enough to check many distinct cursors.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < len(spans); i += 4 {
		end := i + 4
		if end > len(spans) {
			end = len(spans)
		}
		w := spans[i:end]
		rng.Shuffle(len(w), func(a, b int) { w[a], w[b] = w[b], w[a] })
	}

	checked := 0
	lastCursor := int64(0)
	for _, sp := range spans {
		caps := make([]*capture.Capture, sp.n)
		for i := range caps {
			caps[i] = testCapture(sp.at + i)
		}
		if _, err := ing.IngestBatchAt(int64(sp.at), int64(sp.n), caps); err != nil {
			t.Fatal(err)
		}
		cur := live.Cursor()
		if cur == lastCursor {
			continue // batch buffered out of order, nothing committed yet
		}
		if cur != int64(len(committed)) {
			t.Fatalf("engine cursor %d != committed records %d", cur, len(committed))
		}
		if cur != store.Len() {
			t.Fatalf("engine cursor %d != store length %d at commit boundary", cur, store.Len())
		}
		lastCursor = cur

		liveSnaps, err := live.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		want := batchSnapshots(t, committed, nshards)
		for name, wantBytes := range want {
			if !bytes.Equal(liveSnaps[name], wantBytes) {
				t.Fatalf("cursor %d, view %s: incremental and batch bytes differ\n inc: %.200s\nbat: %.200s",
					cur, name, liveSnaps[name], wantBytes)
			}
		}
		checked++
	}
	if live.Cursor() != total {
		t.Fatalf("final cursor = %d, want %d", live.Cursor(), total)
	}
	if checked < 10 {
		t.Fatalf("only %d commit cursors checked — ordered delivery degenerated", checked)
	}
	t.Logf("verified byte-identity across %d views at %d commit cursors", len(ViewNames()), checked)
}

// TestEngineStateRoundTrip proves checkpoint restore is exact: an
// engine restored mid-stream and fed the remainder serves the same
// bytes as one that never stopped.
func TestEngineStateRoundTrip(t *testing.T) {
	const nshards = 3
	straight := NewEngine(testConfig())
	first := NewEngine(testConfig())
	feed := func(e *Engine, from, to int) {
		for i := from; i < to; i++ {
			c := testCapture(i)
			e.Apply(capstore.ShardOf(c.FinalDomain, nshards), []*capture.Capture{c})
		}
	}
	feed(straight, 0, 200)
	feed(first, 0, 120)
	if _, err := first.SnapshotAll(); err != nil { // warm caches must not leak into state
		t.Fatal(err)
	}
	state, err := first.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	resumed := NewEngine(testConfig())
	if err := resumed.UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	if resumed.Cursor() != 120 {
		t.Fatalf("restored cursor = %d, want 120", resumed.Cursor())
	}
	feed(resumed, 120, 200)

	wantSnaps, err := straight.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	gotSnaps, err := resumed.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range wantSnaps {
		if !bytes.Equal(gotSnaps[name], want) {
			t.Errorf("view %s diverged after state round-trip", name)
		}
	}
}

// TestEngineUnknownView checks the 404 error path.
func TestEngineUnknownView(t *testing.T) {
	e := NewEngine(testConfig())
	if _, err := e.Snapshot("nope"); err == nil {
		t.Fatal("expected error for unknown view")
	}
	for _, name := range ViewNames() {
		if _, err := e.Snapshot(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestEngineStateRejectsCursorMismatch guards the torn-checkpoint
// defense in depth: a state blob whose shard cursors do not sum to
// its cursor is rejected.
func TestEngineStateRejectsCursorMismatch(t *testing.T) {
	e := NewEngine(testConfig())
	c := testCapture(1)
	e.Apply(0, []*capture.Capture{c})
	state, err := e.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(state, []byte(`"cursor":1`), []byte(`"cursor":2`), 1)
	if bytes.Equal(bad, state) {
		t.Fatal("fixture: cursor field not found in state")
	}
	if err := NewEngine(testConfig()).UnmarshalState(bad); err == nil {
		t.Fatal("expected cursor/shard-sum mismatch to be rejected")
	}
}

// TestEngineSharesGVLPoints: the gvl view's points are built once per
// history config for the process, so every engine after the first
// skips generating the history, and the view's bytes are those of a
// freshly built history.
func TestEngineSharesGVLPoints(t *testing.T) {
	cfg := Config{GVL: gvl.HistoryConfig{Seed: 4242, Versions: 215, InitialVendors: 150, PeakVendors: 650}}
	alloc := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		NewEngine(cfg)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := alloc(), alloc()
	t.Logf("first engine allocates %d bytes, second %d", first, second)
	if second*100 >= first {
		t.Errorf("a second engine allocates %d bytes, want under 1%% of the first's %d", second, first)
	}

	got, err := NewEngine(cfg).Snapshot(ViewGVL)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&GVLView{View: ViewGVL, Points: buildGVLPoints(gvl.GenerateHistory(cfg.GVL))})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("gvl view from shared points differs from a fresh build:\n got %.200s\nwant %.200s", got, want)
	}
}
