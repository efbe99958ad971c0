package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/rng"
)

// archiveMixed is Auklet's mixed read/write load as the object count
// grows: the ring starts with the first third of the corpus, one
// writer pushes the rest in fixed batches while one reader issues the
// seeded query mix through the ring's /query and /count, and the
// window ends when the writer finishes.
type archiveMixed struct {
	in  *inputs
	m   *recorder
	acc *layerAcc
	c   *cluster
	n   int // windows run, so each draws a fresh stretch of the query mix
}

func newArchiveMixed(in *inputs, m *recorder, acc *layerAcc) workload {
	return &archiveMixed{in: in, m: m, acc: acc}
}

// pushAll sends caps to the ring in PushBatch-record batches, noting
// each push in log when one is given.
func pushAll(c *cluster, m *recorder, caps []*capture.Capture, log *pushLog) error {
	for len(caps) > 0 {
		n := c.sz.PushBatch
		if n > len(caps) {
			n = len(caps)
		}
		end := m.start("bench.push", "")
		t0 := time.Now()
		_, err := c.client.RecordBatch(caps[:n])
		end()
		if log != nil {
			log.note(t0, err)
		}
		if err != nil {
			return err
		}
		caps = caps[n:]
	}
	return nil
}

func (a *archiveMixed) prepare() (bool, error) {
	a.close()
	dir, err := workDir(a.in, "mixed-")
	if err != nil {
		return false, err
	}
	if a.c, err = newCluster(dir, a.in.sz, a.m); err != nil {
		return false, err
	}
	a.c.startCompactors()
	p := a.in.pipeline
	if err := pushAll(a.c, nil, p.corpus[:p.preload], nil); err != nil {
		return false, err
	}
	return true, a.c.writer.WaitConverged(30 * time.Second)
}

func (a *archiveMixed) close() {
	if a.c != nil {
		a.c.close()
		a.c = nil
	}
}

// ask runs one pool query through the ring front and returns how many
// captures matched.
func (a *archiveMixed) ask(q query) (int, error) {
	defer a.m.start("bench.query", "")()
	if !q.Rows {
		return a.c.client.Count(q.Q)
	}
	n := 0
	err := a.c.client.Query(q.Q, 0, 0, func(*capture.Capture) bool { n++; return true })
	return n, err
}

func (a *archiveMixed) run() (*window, error) {
	p := a.in.pipeline
	rest := p.corpus[p.preload:]
	pushes := &pushLog{}
	var writerDone atomic.Bool
	writerErr := make(chan error, 1)

	// The reader's draws continue where the previous window stopped, so
	// the run as a whole follows one seeded sequence.
	r := rng.New(a.in.seed).Derive("bench-queries").Stream("mix", rng.Key(a.n))
	a.n++
	var queryMS [4][]float64 // by store-size quartile at issue time
	queries, queryFailed, results := 0, 0, 0

	endRoot := a.m.start("bench.window", "")
	t0 := time.Now()
	go func() {
		err := pushAll(a.c, a.m, rest, pushes)
		writerDone.Store(true)
		writerErr <- err
	}()
	var readErr error
	for !writerDone.Load() {
		q := p.queries[r.Intn(len(p.queries))]
		grown := a.c.writer.Stats().Committed - int64(p.preload)
		quartile := int(grown * 4 / int64(len(rest)))
		if quartile > 3 {
			quartile = 3
		}
		qt0 := time.Now()
		n, err := a.ask(q)
		queries++
		if err != nil {
			queryFailed++
			readErr = err
			continue
		}
		queryMS[quartile] = append(queryMS[quartile], time.Since(qt0).Seconds()*1e3)
		results += n
		if n < q.Lo || n > q.Hi {
			readErr = fmt.Errorf("query %+v matched %d captures, want between %d (preloaded prefix) and %d (whole corpus)", q.Q, n, q.Lo, q.Hi)
		}
	}
	err := <-writerErr
	wall := time.Since(t0).Seconds()
	endRoot()
	if err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}

	// Correctness: once converged, a full sweep of the ring is the
	// corpus, record for record, and every replica segment is the
	// baseline's.
	if a.m != nil {
		a.c.storageLayers(a.acc, p.userBytes)
	}
	if err := a.c.writer.WaitConverged(30 * time.Second); err != nil {
		return nil, err
	}
	if _, err := checkSweep(a.c, p); err != nil {
		return nil, err
	}
	if err := a.c.checkManifests(p.manifest); err != nil {
		return nil, err
	}

	win := newWindow()
	win.wall, win.ops = wall, float64(len(rest))
	win.vals["ingest_records_per_s"] = float64(len(rest)) / wall
	win.vals["queries_per_s"] = float64(queries-queryFailed) / wall
	win.lats["ingest_ack"] = pushes.ms
	for _, ms := range queryMS {
		win.lats["query"] = append(win.lats["query"], ms...)
	}
	win.attempted = len(pushes.ms) + pushes.failed + queries
	win.failed = pushes.failed + queryFailed
	if a.m != nil {
		for i, ms := range queryMS {
			key := fmt.Sprintf("query_ms_q%d", i+1)
			a.acc.vals[key] = append(a.acc.vals[key], ms...)
		}
		a.acc.add("capstore.results", float64(results))
	}
	return win, nil
}

// checkSweep sweeps the whole ring through its reader, failed captures
// included, and compares it record for record with the corpus in sweep
// order as it streams. It returns the rows swept.
func checkSweep(c *cluster, p *pipelineInputs) (int, error) {
	i := 0
	err := c.writer.Reader().Query(capturedb.Query{IncludeFailed: true}, 0, 0, func(got *capture.Capture) bool {
		if i >= len(p.sweep) || !sameShare(got, p.sweep[i]) {
			return false
		}
		i++
		return true
	})
	if err != nil {
		return i, err
	}
	if i != len(p.sweep) {
		return i, fmt.Errorf("sweep diverges from the corpus at row %d of %d", i, len(p.sweep))
	}
	return i, nil
}

// sameShare compares the fields that identify a capture (its ingest
// idempotency key) and its outcome.
func sameShare(a, b *capture.Capture) bool {
	return a.SeedURL == b.SeedURL && a.Day == b.Day && a.Config == b.Config &&
		a.Failed == b.Failed && a.FinalURL == b.FinalURL && len(a.Requests) == len(b.Requests)
}

func (a *archiveMixed) layers(r *result) {
	r.tailLayer("replica.ingest_ack", r.lats["ingest_ack"])
	r.tailLayer("replica.query", r.lats["query"])
	r.layer("replica.reader_busy_s", r.busy["replica.query"])
	q1 := summarize(r.acc.vals["query_ms_q1"]).P50
	q4 := summarize(r.acc.vals["query_ms_q4"]).P50
	r.layer("replica.query_p50_q1_ms", q1)
	r.layer("replica.query_p50_q4_ms", q4)
	r.layer("capstore.rows_scanned_per_result", ratio(r.acc.sum["capstore.rows_scanned"], r.acc.sum["capstore.results"]))
	r.storageLayers()
}
