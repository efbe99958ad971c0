package analytics

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
)

// fillStore appends captures [from, to) of the deterministic stream.
func fillStore(store *capstore.Store, from, to int) {
	for i := from; i < to; i++ {
		store.Record(testCapture(i))
	}
}

// TestFollowerBootstrapAndResume is the crash-restart story in
// miniature: bootstrap from a store, checkpoint, "crash", restart a
// fresh follower from the checkpoint, and verify it folds only the
// suffix yet serves bytes identical to an uninterrupted batch run.
func TestFollowerBootstrapAndResume(t *testing.T) {
	const nshards = 3
	dir := t.TempDir()
	ckpt := t.TempDir()
	store, err := capstore.Create(dir, nshards)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	fillStore(store, 0, 150)

	eng := NewEngine(testConfig())
	f := NewFollower(FollowerConfig{
		Source:        StoreSource{Store: store},
		Engine:        eng,
		CheckpointDir: ckpt,
	})
	if cur, err := f.Resume(); err != nil || cur != -1 {
		t.Fatalf("cold resume: cursor %d, err %v", cur, err)
	}
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if eng.Cursor() != 150 {
		t.Fatalf("bootstrap cursor = %d, want 150", eng.Cursor())
	}
	if lag := f.Lag(); lag != 0 {
		t.Fatalf("lag after bootstrap = %d, want 0", lag)
	}

	// "Crash": drop the follower and engine on the floor. More records
	// arrive while we are down.
	fillStore(store, 150, 220)

	eng2 := NewEngine(testConfig())
	f2 := NewFollower(FollowerConfig{
		Source:        StoreSource{Store: store},
		Engine:        eng2,
		CheckpointDir: ckpt,
	})
	cur, err := f2.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if cur != 150 {
		t.Fatalf("resumed cursor = %d, want 150 (the bootstrap checkpoint)", cur)
	}
	applied, err := f2.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 70 {
		t.Fatalf("sweep applied %d records, want exactly the 70-record suffix", applied)
	}
	if eng2.Cursor() != 220 {
		t.Fatalf("cursor after resume+sweep = %d, want 220", eng2.Cursor())
	}

	// Byte-identity against a never-interrupted batch run.
	batch, err := BatchEngine(store, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng2.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("view %s: resumed follower diverged from batch", name)
		}
	}
}

// TestFollowerRunWritesFinalCheckpoint proves the shutdown path: Run
// checkpoints on context cancellation so the next start resumes at
// the stop cursor.
func TestFollowerRunWritesFinalCheckpoint(t *testing.T) {
	store, err := capstore.Create(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	fillStore(store, 0, 40)

	ckpt := t.TempDir()
	eng := NewEngine(testConfig())
	f := NewFollower(FollowerConfig{
		Source:        StoreSource{Store: store},
		Engine:        eng,
		CheckpointDir: ckpt,
		PollInterval:  time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Cursor() < 40 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up (cursor %d)", eng.Cursor())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if cur, _, err := LoadLatestCheckpoint(ckpt); err != nil || cur != 40 {
		t.Fatalf("final checkpoint cursor = %d (err %v), want 40", cur, err)
	}
}

// TestFollowerLagCountsUnappliedSuffix checks the lag gauge source.
func TestFollowerLagCountsUnappliedSuffix(t *testing.T) {
	store, err := capstore.Create(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := NewEngine(testConfig())
	f := NewFollower(FollowerConfig{Source: StoreSource{Store: store}, Engine: eng})
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	fillStore(store, 0, 25)
	// Lag is measured against the counts seen by the last sweep; a
	// fresh sweep both observes and drains the suffix.
	if applied, err := f.Sweep(); err != nil || applied != 25 {
		t.Fatalf("sweep: applied %d, err %v", applied, err)
	}
	if lag := f.Lag(); lag != 0 {
		t.Fatalf("lag after sweep = %d, want 0", lag)
	}
}

// TestClientSourceFollowsLiveServer runs the real HTTP path: a capd-
// style ingest server, a ClientSource follower, and byte-identity at
// the end of the stream.
func TestClientSourceFollowsLiveServer(t *testing.T) {
	const nshards = 2
	store, err := capstore.Create(t.TempDir(), nshards)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ing, err := capstore.NewIngester(store, capstore.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(capstore.NewHandler(store))
	t.Cleanup(srv.Close)

	var caps []*capture.Capture
	for i := 0; i < 60; i++ {
		caps = append(caps, testCapture(i))
	}
	ing.IngestBatch(caps)

	eng := NewEngine(testConfig())
	f := NewFollower(FollowerConfig{
		Source: ClientSource{Client: capstore.NewClient(srv.URL)},
		Engine: eng,
	})
	if err := f.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	if eng.Cursor() != 60 {
		t.Fatalf("cursor = %d, want 60", eng.Cursor())
	}
	batch, err := BatchEngine(store, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := batch.SnapshotAll()
	got, _ := eng.SnapshotAll()
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("view %s: client-source follower diverged from batch", name)
		}
	}
}

// linesSource serves the same wire lines as every shard's stream.
type linesSource struct{ body []byte }

func (s linesSource) Counts() ([]int, error) { return []int{bytes.Count(s.body, []byte{'\n'})}, nil }

func (s linesSource) Stream(shard, from int) (io.ReadCloser, error) {
	return io.NopCloser(bytes.NewReader(s.body)), nil
}

// TestFollowShardReusesReader: the follower reads every shard stream of
// every sweep through one record reader, so a short stream costs its
// records' key scans, not a 64 KiB read buffer.
func TestFollowShardReusesReader(t *testing.T) {
	var body []byte
	for i := 0; i < 4; i++ {
		line, err := capturedb.Encode(testCapture(i))
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, line...)
	}
	f := NewFollower(FollowerConfig{Source: linesSource{body}, Engine: NewEngine(testConfig())})
	follow := func() {
		if n, err := f.followShard(0, 0); n != 4 || err != nil {
			t.Fatalf("followShard: %d records, %v", n, err)
		}
	}
	follow()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		follow()
	}
	runtime.ReadMemStats(&after)
	b := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("a 4-record shard stream allocates %.0f bytes", b)
	if b > 32<<10 {
		t.Errorf("a 4-record shard stream allocates %.0f bytes, want under 32 KiB (no 64 KiB reader per stream)", b)
	}
}

// TestClientSourceKeepsConnection: records keep arriving while a
// follower sweeps, so each /segment stream holds more than the /stats
// before it counted. The follower reads every stream to its end, and
// sweep after sweep runs over one kept-alive connection to the node
// instead of a new one per shard per sweep.
func TestClientSourceKeepsConnection(t *testing.T) {
	// Each stream's surplus is larger than a record reader's buffer,
	// so stopping at the counted records would leave it unread.
	const nshards, sweeps, perSweep, surplus = 3, 12, 20, 900
	store, err := capstore.Create(t.TempDir(), nshards)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var mu sync.Mutex
	stored := 0
	ingest := func(n int) {
		mu.Lock()
		defer mu.Unlock()
		fillStore(store, stored, stored+n)
		stored += n
	}
	h := capstore.NewHandler(store)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/stats" {
			ingest(surplus) // commits between the count and the stream
		}
	}))
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)

	eng := NewEngine(testConfig())
	f := NewFollower(FollowerConfig{Source: ClientSource{Client: capstore.NewClient(srv.URL)}, Engine: eng})
	for i := 0; i < sweeps; i++ {
		ingest(perSweep)
		if applied, err := f.Sweep(); err != nil || applied == 0 {
			t.Fatalf("sweep %d: applied %d, err %v", i, applied, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d sweeps opened %d connections to the node, want 1", sweeps, n)
	}
}
