package replica

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/obs"
	"repro/internal/resilience/chaos"
	"repro/internal/simtime"
)

// mkCapture fabricates a distinct capture; i keys every identifying
// field so idempotency, ordering, and placement are all observable.
func mkCapture(i int) *capture.Capture {
	return &capture.Capture{
		SeedURL:     fmt.Sprintf("https://site%d.example/p/%d", i%13, i),
		FinalURL:    fmt.Sprintf("https://site%d.example/p/%d", i%13, i),
		FinalDomain: fmt.Sprintf("site%d.example", i%13),
		Day:         simtime.Day(i % 7),
		Vantage:     capture.USCloud,
		Status:      200,
		Requests: []capture.Request{
			{Host: fmt.Sprintf("cmp%d.example", i%3), Path: "/c.js", Status: 200, BytesRaw: 90 + i, BytesCompressed: 80 + i},
		},
	}
}

// cluster is an in-process ring: each node is a full capd surface
// (ingest + query + manifest + healthz) behind a chaos kill gate.
type cluster struct {
	names  []string
	stores []*capstore.Store
	gates  map[string]*chaos.Gate
	w      *Writer
}

func newCluster(t *testing.T, nodes, shards int, mut func(*Config)) *cluster {
	t.Helper()
	return newWrappedCluster(t, nodes, shards, mut, nil)
}

// newWrappedCluster is newCluster with wrap, when given, put between
// each node's kill gate and its handler tree.
func newWrappedCluster(t *testing.T, nodes, shards int, mut func(*Config), wrap func(name string, h http.Handler) http.Handler) *cluster {
	t.Helper()
	c := &cluster{gates: make(map[string]*chaos.Gate)}
	cfg := Config{
		Shards:        shards,
		Seed:          11,
		Replicas:      2,
		Quorum:        1,
		MaxHandoff:    4,
		QuorumTimeout: 250 * time.Millisecond,
		ProbeInterval: 4 * time.Millisecond,
		NodeTimeout:   5 * time.Second,
	}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("node-%d", i)
		store, err := capstore.Create(t.TempDir(), shards)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		ing, err := capstore.NewIngester(store, capstore.IngestConfig{})
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/ingest", ing)
		mux.Handle("/", capstore.NewResilientHandler(store, capstore.ServeConfig{}))
		var h http.Handler = mux
		if wrap != nil {
			h = wrap(name, h)
		}
		gate := chaos.NewGate(h)
		srv := httptest.NewServer(gate)
		t.Cleanup(srv.Close)
		c.names = append(c.names, name)
		c.stores = append(c.stores, store)
		c.gates[name] = gate
		cfg.Nodes = append(cfg.Nodes, NodeConfig{Name: name, URL: srv.URL})
	}
	if mut != nil {
		mut(&cfg)
	}
	w, err := NewWriter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	c.w = w
	return c
}

// pushOrdered retries through shedding and missed quorums — the fleet
// worker's contract — calling step between attempts so a chaos
// schedule keyed to commits can make progress.
func (c *cluster) pushOrdered(at, n int64, caps []*capture.Capture, step func()) error {
	for {
		_, err := c.w.RecordBatchAt(at, n, caps)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, capstore.ErrIngestShed), errors.Is(err, ErrQuorumTimeout):
			if step != nil {
				step()
			}
			time.Sleep(2 * time.Millisecond)
		default:
			return err
		}
	}
}

// baseline builds the canonical single-node store for the commit
// sequence and returns its segment bytes.
func baseline(t *testing.T, caps []*capture.Capture, shards int) (dir string, segs map[string][]byte) {
	t.Helper()
	dir = t.TempDir()
	st, err := capstore.Create(dir, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range caps {
		st.Record(c)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, readSegs(t, dir)
}

func readSegs(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// assertNodesCanonical checks the byte-identity invariant: every
// node's placed segments equal the canonical store's bytes exactly,
// and its unplaced segments are empty.
func (c *cluster) assertNodesCanonical(t *testing.T, want map[string][]byte, shards int) {
	t.Helper()
	for i, name := range c.names {
		if err := c.stores[i].Flush(); err != nil {
			t.Fatal(err)
		}
		got := readSegs(t, c.stores[i].Dir())
		owned := make(map[int]bool)
		for _, s := range c.w.Ring().SegmentsOf(name, shards) {
			owned[s] = true
		}
		for s := 0; s < shards; s++ {
			seg := fmt.Sprintf("seg-%03d.jsonl", s)
			if owned[s] {
				if !bytes.Equal(got[seg], want[seg]) {
					t.Errorf("%s %s: %d bytes, canonical %d — replica diverged from canonical prefix order",
						name, seg, len(got[seg]), len(want[seg]))
				}
			} else if len(got[seg]) != 0 {
				t.Errorf("%s %s: %d bytes in an unplaced segment", name, seg, len(got[seg]))
			}
		}
	}
}

func sweep(t *testing.T, query func(capturedb.Query, int, int, func(*capture.Capture) bool) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := query(capturedb.Query{IncludeFailed: true}, 0, 0, func(c *capture.Capture) bool {
		line, err := capturedb.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOrderedContractParity: the writer's ordered-mode semantics match
// a single capd's — strict range order, bounded reorder buffer with
// shedding, whole-batch duplicate drops, skip markers.
func TestOrderedContractParity(t *testing.T) {
	const shards = 4
	c := newCluster(t, 3, shards, func(cfg *Config) { cfg.MaxPendingBatches = 1 })
	var caps []*capture.Capture
	for i := 0; i < 12; i++ {
		caps = append(caps, mkCapture(i))
	}
	// Out of order: [4,8) buffers.
	if res, err := c.w.RecordBatchAt(4, 4, caps[4:8]); err != nil || res.Pending != 1 {
		t.Fatalf("buffered push: res=%+v err=%v", res, err)
	}
	// Buffer full: [8,12) sheds.
	if _, err := c.w.RecordBatchAt(8, 4, caps[8:12]); !errors.Is(err, capstore.ErrIngestShed) {
		t.Fatalf("want ErrIngestShed, got %v", err)
	}
	// Unblock: commits [0,8) in order, waits for quorum.
	if res, err := c.w.RecordBatchAt(0, 4, caps[0:4]); err != nil || res.Accepted != 4 {
		t.Fatalf("unblocking push: res=%+v err=%v", res, err)
	}
	// Skip marker advances the cursor without records.
	if _, err := c.w.RecordBatchAt(8, 4, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.w.Stats(); st.NextSeq != 12 {
		t.Fatalf("cursor %+v, want next_seq 12", st)
	}
	// Re-delivery of a committed range: duplicates, no re-fan-out.
	if res, err := c.w.RecordBatchAt(0, 4, caps[0:4]); err != nil || res.Duplicates != 4 {
		t.Fatalf("stale push: res=%+v err=%v", res, err)
	}
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, want := baseline(t, caps[:8], shards)
	c.assertNodesCanonical(t, want, shards)
}

// TestChaosKillReviveByteIdentity is the tentpole's determinism gate:
// under a seeded schedule of single-node kills and revivals — long
// enough outages to overflow the hinted handoff and force anti-entropy
// repair — the ring converges to byte identity with a single-node
// store fed the same commit sequence, and a full replicated query
// sweep is byte-identical to the single store's.
func TestChaosKillReviveByteIdentity(t *testing.T) {
	const (
		shards = 8
		total  = 600
		batch  = 5
	)
	reg := obs.NewRegistry()
	c := newCluster(t, 3, shards, func(cfg *Config) {
		cfg.Registry = reg
		cfg.MaxHandoff = 3 // small: outages overflow into dirty + repair
		// Short quorum timeout so a stalled pusher retries fast enough
		// to drive the chaos clock (see stallTicks below).
		cfg.QuorumTimeout = 50 * time.Millisecond
	})
	var caps []*capture.Capture
	for i := 0; i < total; i++ {
		caps = append(caps, mkCapture(i))
	}
	plan := chaos.KillPlan(23, c.names, 3, total)
	if len(plan) != 3 {
		t.Fatalf("plan: %+v", plan)
	}
	nc := chaos.NewNodeChaos(plan, c.gates)
	// The chaos clock advances on commits, plus a tick per retry: a
	// commit can legitimately stall when its replica set is doubly
	// impaired (one node down, the other still repairing from the
	// PREVIOUS outage and thus unable to append without breaking its
	// byte prefix) — in production the down node revives on wall
	// clock, so the harness must let a stalled pusher reach the next
	// ReviveAt threshold too.
	var stallTicks int64
	step := func() {
		stallTicks++
		nc.Step(c.w.Stats().Committed + stallTicks)
	}
	for at := 0; at < total; at += batch {
		if err := c.pushOrdered(int64(at), batch, caps[at:at+batch], step); err != nil {
			t.Fatal(err)
		}
		step()
	}
	nc.Finish()
	if err := c.w.WaitConverged(30 * time.Second); err != nil {
		t.Fatalf("post-chaos convergence: %v (stats %+v, chaos %v)", err, c.w.Stats(), nc.Log())
	}
	if got := len(nc.Log()); got != 6 {
		t.Fatalf("chaos applied %d transitions (%v), want 6", got, nc.Log())
	}

	dir, want := baseline(t, caps, shards)
	c.assertNodesCanonical(t, want, shards)

	// Full sweep byte-identity: replicated reader vs the single store.
	single, err := capstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	wantSweep := sweep(t, func(q capturedb.Query, _, _ int, fn func(*capture.Capture) bool) error {
		return single.Query(q, fn)
	})
	gotSweep := sweep(t, c.w.Reader().Query)
	if !bytes.Equal(wantSweep, gotSweep) {
		t.Fatalf("replicated sweep %d bytes != single-store sweep %d bytes", len(gotSweep), len(wantSweep))
	}

	// The metrics surface stayed valid and saw the outages.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
	for _, fam := range []string{"repl_node_up", "repl_repair_records_total", "repl_committed_records_total", "repl_quorum_wait_seconds"} {
		if !bytes.Contains(buf.Bytes(), []byte(fam)) {
			t.Errorf("exposition missing %s", fam)
		}
	}
}

// TestRepairDuringIngestRace runs live ordered ingest concurrently
// with a node loss, handoff overflow, and anti-entropy repair — under
// -race this exercises the serialization of repair against deliveries
// (both run in the per-node sender), and the final byte-identity check
// proves committed records were neither duplicated nor reordered by
// the overlap of hint replay, repair streams, and live appends.
func TestRepairDuringIngestRace(t *testing.T) {
	const (
		shards = 4
		total  = 400
		batch  = 4
	)
	c := newCluster(t, 3, shards, func(cfg *Config) { cfg.MaxHandoff = 2 })
	var caps []*capture.Capture
	for i := 0; i < total; i++ {
		caps = append(caps, mkCapture(i))
	}
	errs := make(chan error, 1)
	go func() {
		for at := 0; at < total; at += batch {
			if err := c.pushOrdered(int64(at), batch, caps[at:at+batch], nil); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	victim := c.names[1]
	c.gates[victim].Kill()
	// Hold the outage until the victim went dirty (handoff overflowed)
	// so revival runs a real repair against live traffic.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.w.Stats()
		if st.Nodes[1].Dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never went dirty: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.gates[victim].Revive()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := c.w.WaitConverged(30 * time.Second); err != nil {
		t.Fatalf("convergence: %v (stats %+v)", err, c.w.Stats())
	}
	_, want := baseline(t, caps, shards)
	c.assertNodesCanonical(t, want, shards)
}

// TestReadServesDegraded: with one of three nodes hard down, the read
// path keeps serving the complete, correct result set via failover.
func TestReadServesDegraded(t *testing.T) {
	const shards = 8
	reg := obs.NewRegistry()
	c := newCluster(t, 3, shards, func(cfg *Config) { cfg.Registry = reg })
	var caps []*capture.Capture
	for i := 0; i < 240; i++ {
		caps = append(caps, mkCapture(i))
	}
	for at := 0; at < len(caps); at += 8 {
		if err := c.pushOrdered(int64(at), 8, caps[at:at+8], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	dir, _ := baseline(t, caps, shards)
	single, err := capstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	want := sweep(t, func(q capturedb.Query, _, _ int, fn func(*capture.Capture) bool) error {
		return single.Query(q, fn)
	})

	rd := c.w.Reader()
	failovers := obs.NewCounter(reg, "repl_read_failovers_total", "")
	for _, down := range c.names {
		c.gates[down].Kill()
		before := failovers.Value()
		got := sweep(t, rd.Query)
		if !bytes.Equal(want, got) {
			t.Fatalf("sweep with %s down: %d bytes, want %d", down, len(got), len(want))
		}
		queryFailovers := failovers.Value() - before
		if n, err := rd.Count(capturedb.Query{IncludeFailed: true}); err != nil || n != len(caps) {
			t.Fatalf("count with %s down: %d, %v", down, n, err)
		}
		// Query and count walk one attempt loop: the same dead replicas
		// cost both the same failovers.
		if countFailovers := failovers.Value() - before - queryFailovers; countFailovers != queryFailovers || queryFailovers == 0 {
			t.Errorf("with %s down: query failed over %d times, count %d times", down, queryFailovers, countFailovers)
		}
		c.gates[down].Revive()
	}
	if v := obs.NewCounter(reg, "repl_read_failovers_total", "").Value(); v == 0 {
		t.Error("no read failovers recorded despite node-down sweeps")
	}
}

// TestHandoffLogTornTailRepair mirrors the segment torn-tail tests for
// the durable hint log: a crash mid-append leaves a torn final line;
// opening the log keeps the valid prefix and truncates the fragment.
func TestHandoffLogTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	log, hints, err := openHandoffLog(dir, "n0")
	if err != nil {
		t.Fatal(err)
	}
	if len(hints) != 0 {
		t.Fatalf("fresh log has %d hints", len(hints))
	}
	for i := 0; i < 3; i++ {
		it := item{lines: [][]byte{ndjson(t, []*capture.Capture{mkCapture(i)}), ndjson(t, []*capture.Capture{mkCapture(i + 50)})}, shards: []int{i % 2}}
		if err := log.Append(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	path := handoffPath(dir, "n0")
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: a fourth hint cut inside its line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":9,"shards":[1],"caps":[{"tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	log2, hints2, err := openHandoffLog(dir, "n0")
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if len(hints2) != 3 {
		t.Fatalf("repaired log has %d hints, want 3", len(hints2))
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repaired, clean) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", len(repaired), len(clean))
	}
	// Hints round-trip into deliverable items.
	for i, h := range hints2 {
		it, err := h.item()
		if err != nil {
			t.Fatal(err)
		}
		if len(it.lines) != 2 {
			t.Fatalf("hint %d decoded %q", i, it.lines)
		}
		if c, err := capturedb.Decode(it.lines[0]); err != nil || c.SeedURL != mkCapture(i).SeedURL {
			t.Fatalf("hint %d decoded %q", i, it.lines)
		}
	}
	// A complete-but-corrupt line is not crash damage: the open fails
	// naming file and line, and the log is left as found.
	corrupt := append(append([]byte{}, clean...), []byte("not json\n{}\n")...)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	log2.Close()
	_, _, err = openHandoffLog(dir, "n0")
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("corrupt-line log opened with err = %v, want one naming %s line 4", err, path)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, corrupt) {
		t.Fatalf("corrupt log was modified: %d bytes, want %d", len(after), len(corrupt))
	}
}

// TestHandoffDurableReplay: hints written while a node is down survive
// a writer restart and deliver on the next run.
func TestHandoffDurableReplay(t *testing.T) {
	const shards = 4
	handoffDir := t.TempDir()
	c := newCluster(t, 3, shards, func(cfg *Config) {
		cfg.HandoffDir = handoffDir
		cfg.MaxHandoff = 1 << 20 // never overflow: hints only
	})
	var caps []*capture.Capture
	for i := 0; i < 40; i++ {
		caps = append(caps, mkCapture(i))
	}
	if err := c.pushOrdered(0, 20, caps[:20], nil); err != nil {
		t.Fatal(err)
	}
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The victim must own segments or it never sees a delivery: pick
	// the node placed for the most segments.
	owned := make(map[string]int)
	for s := 0; s < shards; s++ {
		for _, name := range c.w.Ring().PlaceSegment(s) {
			owned[name]++
		}
	}
	victim := c.names[0]
	for _, name := range c.names {
		if owned[name] > owned[victim] {
			victim = name
		}
	}
	vidx := slices.Index(c.names, victim)
	c.gates[victim].Kill()
	// Several small batches: the first failed delivery marks the node
	// down (logging the in-flight item), and every later batch is then
	// enqueued while down, accumulating queued hints.
	for at := 20; at < 40; at += 4 {
		if err := c.pushOrdered(int64(at), 4, caps[at:at+4], nil); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the writer noticed the outage, then "crash" it with
	// the node still down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.w.Stats()
		if !st.Nodes[vidx].Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writer never marked %s down (gate refused %d): %+v",
				victim, c.gates[victim].Refused(), st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.w.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(handoffPath(handoffDir, victim)); err != nil || len(data) == 0 {
		t.Fatalf("durable handoff log empty (err %v)", err)
	}

	// Next run: same nodes, same log dir; the node is back.
	c.gates[victim].Revive()
	cfg := c.w.cfg // carries the node URLs of the live test servers
	w2, err := NewWriter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	// Replayed hints must land the missing records; convergence checks
	// counts via manifests, and the byte check proves order survived.
	w2.mu.Lock()
	copy(w2.shardCounts, shardCountsFor(caps, shards))
	w2.committed = int64(len(caps))
	w2.mu.Unlock()
	if err := w2.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("replay convergence: %v (stats %+v)", err, w2.Stats())
	}
	c2 := &cluster{names: c.names, stores: c.stores, gates: c.gates, w: w2}
	_, want := baseline(t, caps, shards)
	c2.assertNodesCanonical(t, want, shards)
}

func shardCountsFor(caps []*capture.Capture, shards int) []int64 {
	counts := make([]int64, shards)
	for _, c := range caps {
		counts[capstore.ShardOf(c.FinalDomain, shards)]++
	}
	return counts
}

// assertNodesLogicalCanonical is assertNodesCanonical for stores that
// may have been compacted: instead of raw segment files it compares
// each node's *logical* stream — packs and tail spliced by
// StreamShard — against the canonical bytes. Unplaced segments must
// still stream empty.
func (c *cluster) assertNodesLogicalCanonical(t *testing.T, want map[string][]byte, shards int) {
	t.Helper()
	for i, name := range c.names {
		owned := make(map[int]bool)
		for _, s := range c.w.Ring().SegmentsOf(name, shards) {
			owned[s] = true
		}
		for s := 0; s < shards; s++ {
			var buf bytes.Buffer
			if _, _, err := c.stores[i].StreamShard(s, 0, &buf); err != nil {
				t.Fatal(err)
			}
			seg := fmt.Sprintf("seg-%03d.jsonl", s)
			if owned[s] {
				if !bytes.Equal(buf.Bytes(), want[seg]) {
					t.Errorf("%s %s: logical stream %d bytes, canonical %d — replica diverged from canonical prefix order",
						name, seg, buf.Len(), len(want[seg]))
				}
			} else if buf.Len() != 0 {
				t.Errorf("%s %s: %d bytes in an unplaced segment", name, seg, buf.Len())
			}
		}
	}
}

// TestRepairWithPackedStores: compaction is invisible to replication.
// A node goes down mid-history and compacts its partial store locally,
// so its repair-time manifest comes entirely from pack footer indexes.
// The surviving peers then compact the full history, so the victim's
// prefix probe resolves *inside* a pack on the peer side and the
// missing suffix re-streams out of pack data spliced with the tail.
// The revived node must converge to the canonical logical stream, and
// a further compaction of the repaired store must not disturb it.
func TestRepairWithPackedStores(t *testing.T) {
	const (
		shards = 4
		head   = 70
		total  = 200
	)
	c := newCluster(t, 3, shards, nil)
	var caps []*capture.Capture
	for i := 0; i < total; i++ {
		caps = append(caps, mkCapture(i))
	}
	for at := 0; at < head; at += 5 {
		if err := c.pushOrdered(int64(at), 5, caps[at:at+5], nil); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.names[1]
	c.gates[victim].Kill()
	if _, err := c.stores[1].CompactAll(); err != nil {
		t.Fatal(err)
	}
	for at := head; at < total; at += 5 {
		if err := c.pushOrdered(int64(at), 5, caps[at:at+5], nil); err != nil {
			t.Fatal(err)
		}
	}
	// Hold the outage until handoff overflowed so revival runs a real
	// manifest-diff repair rather than a hint replay.
	deadline := time.Now().Add(10 * time.Second)
	for !c.w.Stats().Nodes[1].Dirty {
		if time.Now().After(deadline) {
			t.Fatalf("victim never went dirty: %+v", c.w.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, name := range c.names {
		if name == victim {
			continue
		}
		if _, err := c.stores[i].CompactAll(); err != nil {
			t.Fatal(err)
		}
		if st := c.stores[i].Stats(); st.Packs == 0 {
			t.Fatalf("%s: compaction produced no packs", name)
		}
	}
	c.gates[victim].Revive()
	if err := c.w.WaitConverged(30 * time.Second); err != nil {
		t.Fatalf("convergence: %v (stats %+v)", err, c.w.Stats())
	}
	_, want := baseline(t, caps, shards)
	c.assertNodesLogicalCanonical(t, want, shards)
	if _, err := c.stores[1].CompactAll(); err != nil {
		t.Fatal(err)
	}
	c.assertNodesLogicalCanonical(t, want, shards)
}
