package replica

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/capturedb"
)

// ingestTap records every /ingest body a node receives and holds the
// first one until release is closed; onLater, when set, serves every
// later /ingest in its place.
type ingestTap struct {
	mu      sync.Mutex
	bodies  [][]byte
	stalled chan struct{} // closed when the first /ingest arrives
	release chan struct{}
	onLater func(w http.ResponseWriter, r *http.Request, h http.Handler)
}

func newIngestTap() *ingestTap {
	return &ingestTap{stalled: make(chan struct{}), release: make(chan struct{})}
}

func (tp *ingestTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/ingest" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		tp.mu.Lock()
		tp.bodies = append(tp.bodies, body)
		first, later := len(tp.bodies) == 1, tp.onLater
		tp.mu.Unlock()
		switch {
		case first:
			close(tp.stalled)
			<-tp.release
		case later != nil:
			later(w, r, h)
			return
		}
		h.ServeHTTP(w, r)
	})
}

func (tp *ingestTap) received() [][]byte {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return slices.Clone(tp.bodies)
}

// waitQueued waits until node i of the writer has want sub-batches
// queued behind its in-flight delivery.
func waitQueued(t *testing.T, w *Writer, i, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for w.Stats().Nodes[i].Handoff < want {
		if time.Now().After(deadline) {
			t.Fatalf("node %d never queued %d sub-batches: %+v", i, want, w.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSenderCoalescesBacklog: commits that queue behind a stalled
// delivery reach the node in one /ingest, their lines in the canonical
// order, and every one of them still closes its quorum.
func TestSenderCoalescesBacklog(t *testing.T) {
	const shards, commits = 4, 16
	tap := newIngestTap()
	c := newWrappedCluster(t, 1, shards, func(cfg *Config) {
		cfg.Replicas, cfg.Quorum = 1, 1
		cfg.QuorumTimeout = 10 * time.Second
	}, func(_ string, h http.Handler) http.Handler { return tap.wrap(h) })

	var caps []*capture.Capture
	var canonical []byte
	for i := 0; i < commits; i++ {
		caps = append(caps, mkCapture(i))
		line, err := capturedb.Encode(caps[i])
		if err != nil {
			t.Fatal(err)
		}
		canonical = append(canonical, line...)
	}
	errs := make(chan error, commits)
	push := func(i int) {
		go func() {
			_, err := c.w.RecordBatchAt(int64(i), 1, caps[i:i+1])
			errs <- err
		}()
	}
	push(0)
	<-tap.stalled
	for i := 1; i < commits; i++ {
		push(i)
	}
	waitQueued(t, c.w, 0, commits-1)
	close(tap.release)
	for i := 0; i < commits; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("a commit missed its quorum: %v", err)
		}
	}

	bodies := tap.received()
	if len(bodies) > 2 {
		t.Errorf("the node got %d /ingests for %d commits, want 2: the stalled one and the backlog", len(bodies), commits)
	}
	if got := bytes.Join(bodies, nil); !bytes.Equal(got, canonical) {
		t.Errorf("the node received %d bytes not in canonical order (want %d)", len(got), len(canonical))
	}
	_, want := baseline(t, caps, shards)
	c.assertNodesCanonical(t, want, shards)
}

// TestKillMidCoalescedDelivery: a node that dies in the middle of a
// coalesced delivery — its records applied, the reply lost — leaves
// every sub-batch of the run in its handoff log, in order, and its
// revival ends byte-identical to the canonical store.
func TestKillMidCoalescedDelivery(t *testing.T) {
	const shards, commits, perCommit = 4, 12, 4
	const victim = "node-0"
	handoffDir := t.TempDir()
	tap := newIngestTap()
	c := newWrappedCluster(t, 3, shards, func(cfg *Config) {
		cfg.HandoffDir = handoffDir
		cfg.MaxHandoff = 1 << 20 // hints only, never dirty
	}, func(name string, h http.Handler) http.Handler {
		if name != victim {
			return h
		}
		return tap.wrap(h)
	})
	vidx := slices.Index(c.names, victim)
	if len(c.w.Ring().SegmentsOf(victim, shards)) < 2 {
		t.Fatalf("%s owns fewer than 2 of %d segments", victim, shards)
	}
	gate := c.gates[victim]
	var died atomic.Bool
	tap.mu.Lock()
	tap.onLater = func(w http.ResponseWriter, r *http.Request, h http.Handler) {
		if died.Swap(true) {
			h.ServeHTTP(w, r)
			return
		}
		// Apply the run, then die before the reply: the writer sees a
		// broken connection and the node refuses everything until it
		// is revived.
		h.ServeHTTP(httptest.NewRecorder(), r)
		gate.Kill()
		panic(http.ErrAbortHandler)
	}
	tap.mu.Unlock()

	var caps []*capture.Capture
	for i := 0; i < commits*perCommit; i++ {
		caps = append(caps, mkCapture(i))
	}
	for at := 0; at < commits; at++ {
		if err := c.pushOrdered(int64(at*perCommit), perCommit, caps[at*perCommit:(at+1)*perCommit], nil); err != nil {
			t.Fatal(err)
		}
	}
	<-tap.stalled
	queued := c.w.Stats().Nodes[vidx].Handoff
	if queued < 2 {
		t.Fatalf("only %d sub-batches queued behind the stalled delivery; nothing to coalesce", queued)
	}
	close(tap.release)

	deadline := time.Now().Add(10 * time.Second)
	for c.w.Stats().Nodes[vidx].Up {
		if time.Now().After(deadline) {
			t.Fatalf("writer never marked %s down: %+v", victim, c.w.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	bodies := tap.received()
	if len(bodies) != 2 {
		t.Fatalf("%s got %d /ingests before it died, want the stalled one and one coalesced run", victim, len(bodies))
	}
	data, err := os.ReadFile(handoffPath(handoffDir, victim))
	if err != nil {
		t.Fatal(err)
	}
	var logged []byte
	seqs := []int64{}
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var h hint
		if err := json.Unmarshal(line, &h); err != nil {
			t.Fatalf("handoff line %q: %v", line, err)
		}
		seqs = append(seqs, h.Seq)
		for _, raw := range h.Caps {
			logged = append(append(logged, raw...), '\n')
		}
	}
	increasing := true
	for i := 1; i < len(seqs); i++ {
		increasing = increasing && seqs[i] > seqs[i-1]
	}
	if len(seqs) != queued || !increasing {
		t.Errorf("handoff log holds commits %v, want the %d coalesced sub-batches in commit order", seqs, queued)
	}
	if !bytes.Equal(logged, bodies[1]) {
		t.Errorf("handoff log lines (%d bytes) are not the coalesced run (%d bytes) in order", len(logged), len(bodies[1]))
	}

	c.gates[victim].Revive()
	if err := c.w.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("revival: %v (stats %+v)", err, c.w.Stats())
	}
	_, want := baseline(t, caps, shards)
	c.assertNodesCanonical(t, want, shards)
}
