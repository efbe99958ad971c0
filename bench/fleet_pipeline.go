package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/capture"
	"repro/internal/fleet"
	"repro/internal/resilience"
)

// fleetPipeline is the whole write path: the coordinator hands the
// window to two workers, which crawl it and push to the ring; three
// compacting capds store it; the follower folds it into served views.
// A window ends when the ledger has drained, the replicas have
// converged and the served view cursor equals the committed count.
type fleetPipeline struct {
	in  *inputs
	m   *recorder
	acc *layerAcc

	c     *cluster
	v     *views
	co    *fleet.Coordinator
	coSrv *httptest.Server
}

func newFleetPipeline(in *inputs, m *recorder, acc *layerAcc) workload {
	return &fleetPipeline{in: in, m: m, acc: acc}
}

func (f *fleetPipeline) prepare() (bool, error) {
	f.teardown()
	dir, err := workDir(f.in, "fleet-")
	if err != nil {
		return false, err
	}
	if f.c, err = newCluster(dir, f.in.sz, f.m); err != nil {
		return false, err
	}
	f.c.startCompactors()
	f.v = startViews(f.c, f.m)
	f.co, err = fleet.NewCoordinator(f.in.pipeline.items, fleet.CoordinatorConfig{
		LeaseSize: leaseSize,
		Skip: func(at, n int64) error {
			_, err := f.c.client.RecordBatchAt(at, n, nil)
			return err
		},
		DeadLetter: resilience.NewMemDeadLetter(),
	})
	if err != nil {
		return false, err
	}
	rc := runConfig(f.in.seed, f.in.sz, f.c.front.URL)
	f.coSrv = httptest.NewServer(f.m.wrap(
		func(*http.Request) (string, string) { return "fleet.coord", "" },
		fleet.NewHandler(f.co, rc, fleet.ServerConfig{})))
	return true, nil
}

func (f *fleetPipeline) teardown() {
	if f.c == nil {
		return
	}
	f.v.close()
	f.coSrv.Close()
	f.co.Close()
	f.c.close()
	f.c = nil
}

func (f *fleetPipeline) close() { f.teardown() }

// pushLog is the client's view of the ring: every push's latency and
// outcome, and when the last one was acknowledged.
type pushLog struct {
	mu      sync.Mutex
	ms      []float64
	failed  int
	lastAck time.Time
}

func (l *pushLog) note(t0 time.Time, err error) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		l.failed++
		return
	}
	l.ms = append(l.ms, now.Sub(t0).Seconds()*1e3)
	l.lastAck = now
}

// sample is one 5 ms observation of the ring and the served views.
type sample struct {
	t         time.Time
	committed int64
	cursor    int64
}

const samplePeriod = 5 * time.Millisecond

// servedCursor reads the cursor analyzed serves on /views.
func servedCursor(url string) (int64, error) {
	body, err := httpGet(url + "/views")
	if err != nil {
		return 0, err
	}
	var infos []analytics.ViewInfo
	if err := json.Unmarshal(body, &infos); err != nil || len(infos) == 0 {
		return 0, fmt.Errorf("bad /views payload: %v", err)
	}
	return infos[0].Cursor, nil
}

// viewLags turns the samples into one lag per committed level seen:
// the time from the ring's committed count first reading n to the
// served cursor first reading at least n.
func viewLags(samples []sample) []float64 {
	var lags []float64
	j := 0
	var last int64
	for i, s := range samples {
		if s.committed <= last {
			continue
		}
		last = s.committed
		if j < i {
			j = i
		}
		for j < len(samples)-1 && samples[j].cursor < s.committed {
			j++
		}
		lags = append(lags, samples[j].t.Sub(s.t).Seconds()*1e3)
	}
	return lags
}

func (f *fleetPipeline) run() (*window, error) {
	p, sz := f.in.pipeline, f.in.sz
	rc := runConfig(f.in.seed, sz, f.c.front.URL)
	pushes := &pushLog{}
	push := fleet.IngestPush(f.c.client)
	timedPush := func(trace string, at, n int64, caps []*capture.Capture) error {
		defer f.m.start("fleet.push", fmt.Sprintf("at:%d", at))()
		t0 := time.Now()
		err := push(trace, at, n, caps)
		pushes.note(t0, err)
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var workers []*fleet.Worker
	for i := 0; i < 2; i++ {
		cl := fleet.NewClient(f.coSrv.URL)
		cfg := fleet.WorkerConfig{
			ID: fmt.Sprintf("w%d", i), Coordinator: cl, Push: timedPush, World: p.world, Run: rc,
		}
		if f.m != nil {
			cl.HTTP = &http.Client{Transport: timedTransport{f.m, "fleet.rpc", http.DefaultTransport}}
			cfg.Visitor = timedVisitor{f.m, p.world}
		}
		w, err := fleet.NewWorker(cfg)
		if err != nil {
			return nil, err
		}
		workers = append(workers, w)
	}

	var samples []sample
	var sampleErr error
	var handoffMax int
	stopSampling := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for {
			st := f.c.writer.Stats()
			cursor, err := servedCursor(f.v.srv.URL)
			if err != nil {
				sampleErr = err
				return
			}
			samples = append(samples, sample{time.Now(), st.Committed, cursor})
			for _, n := range st.Nodes {
				if n.Handoff > handoffMax {
					handoffMax = n.Handoff
				}
			}
			select {
			case <-stopSampling:
				return
			case <-t.C:
			}
		}
	}()

	endRoot := f.m.start("bench.window", "")
	t0 := time.Now()
	var wg sync.WaitGroup
	workerErrs := make([]error, len(workers))
	workerWall := make([]float64, len(workers))
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *fleet.Worker) {
			defer wg.Done()
			workerErrs[i] = w.Run(ctx)
			workerWall[i] = time.Since(t0).Seconds()
		}(i, w)
	}
	<-f.co.Done()
	endConverge := f.m.start("replica.converge", "")
	err := f.c.writer.WaitConverged(30 * time.Second)
	endConverge()
	converged := time.Now()
	if err != nil {
		return nil, err
	}
	committed := f.c.writer.Stats().Committed
	endCatchUp := f.m.start("bench.view_wait", "")
	for deadline := time.Now().Add(30 * time.Second); f.v.engine.Cursor() != committed; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("views stuck at cursor %d, ring committed %d", f.v.engine.Cursor(), committed)
		}
		time.Sleep(time.Millisecond)
	}
	endCatchUp()
	wall := time.Since(t0).Seconds()
	endRoot()

	// A worker parked on an idle frame learns of the drain only at its
	// next lease poll; that wait is not part of the campaign.
	cancel()
	wg.Wait()
	close(stopSampling)
	<-samplerDone
	if sampleErr != nil {
		return nil, sampleErr
	}
	for _, err := range workerErrs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}

	disk, err := f.c.diskBytes()
	if err != nil {
		return nil, err
	}
	snapT0 := time.Now()
	if _, err := f.v.engine.SnapshotAll(); err != nil {
		return nil, err
	}
	snapMS := time.Since(snapT0).Seconds() * 1e3

	// Correctness: the ledger balances, every replica segment is the
	// baseline's, and the served views are the batch views.
	ledger := f.co.Ledger()
	if got := ledger.Captures + ledger.DeadLettered + ledger.Dropped; got != ledger.Submitted || ledger.Dropped != 0 {
		return nil, fmt.Errorf("ledger does not balance: %+v", ledger)
	}
	if ledger.Captures != committed || committed != int64(len(p.corpus)) {
		return nil, fmt.Errorf("ledger captures %d, ring committed %d, baseline corpus %d", ledger.Captures, committed, len(p.corpus))
	}
	if err := f.c.checkManifests(p.manifest); err != nil {
		return nil, err
	}
	for _, name := range analytics.ViewNames() {
		got, err := f.v.get(name)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, append(append([]byte(nil), p.views[name]...), '\n')) {
			return nil, fmt.Errorf("served view %q differs from the batch view over the baseline", name)
		}
	}

	lags := viewLags(samples)
	win := newWindow()
	win.wall, win.ops = wall, float64(committed)
	win.vals["captures_per_s"] = float64(committed) / wall
	win.vals["disk_bytes_per_user_byte"] = float64(disk) / float64(p.userBytes)
	win.lats["ingest_ack"] = pushes.ms
	win.lats["view_lag"] = lags
	win.attempted = len(pushes.ms) + pushes.failed + int(ledger.Leases+ledger.Shed)
	win.failed = pushes.failed + int(ledger.Shed)

	if f.m != nil {
		a := f.acc
		a.add("crawler.shares", float64(ledger.Submitted))
		a.add("crawler.dead_lettered", float64(ledger.DeadLettered))
		a.add("fleet.leases", float64(ledger.Leases))
		a.add("fleet.reassigned", float64(ledger.Reassigned))
		a.add("fleet.shed", float64(ledger.Shed))
		for _, w := range workerWall {
			a.add("fleet.worker_wall_s", w)
		}
		a.val("replica.converge_tail_s", converged.Sub(pushes.lastAck).Seconds())
		a.peak("replica.handoff_max", float64(handoffMax))
		for _, s := range samples {
			a.peak("analytics.max_lag_records", float64(s.committed-s.cursor))
		}
		a.val("analytics.snapshot_rebuild_ms", snapMS)
		if state, err := f.v.engine.MarshalState(); err == nil {
			a.val("analytics.state_bytes", float64(len(state)))
		}
		f.c.storageLayers(a, p.userBytes)
	}
	return win, nil
}

func (f *fleetPipeline) layers(r *result) {
	a := r.acc
	visits := r.calls["crawler.visit"]
	r.layer("crawler.visit_busy_s", r.busy["crawler.visit"])
	r.layer("crawler.visit_p50_us", summarize(r.samples["crawler.visit"]).P50*1e3)
	r.layer("crawler.visits", visits)
	r.layer("crawler.retries", visits-a.sum["crawler.shares"])
	r.layer("crawler.dead_lettered", a.sum["crawler.dead_lettered"])
	r.layer("fleet.coord_busy_s", r.busy["fleet.coord"])
	r.layer("fleet.leases", a.sum["fleet.leases"])
	r.layer("fleet.reassigned", a.sum["fleet.reassigned"])
	r.layer("fleet.shed", a.sum["fleet.shed"])
	r.layer("fleet.worker_idle_share",
		1-ratio(r.busy["crawler.visit"]+r.busy["fleet.push"], a.sum["fleet.worker_wall_s"]))
	r.layer("replica.converge_tail_s", median(a.vals["replica.converge_tail_s"]))
	r.layer("replica.handoff_max", a.max["replica.handoff_max"])
	r.tailLayer("replica.ingest_ack", r.lats["ingest_ack"])
	r.layer("analytics.sweep_busy_s", r.busy["analytics.sweep"])
	r.layer("analytics.records_folded", r.ops)
	r.layer("analytics.fold_ns_per_rec", ratio(r.busy["analytics.sweep"]*1e9, r.ops))
	r.layer("analytics.max_lag_records", a.max["analytics.max_lag_records"])
	r.tailLayer("analytics.view_lag", r.lats["view_lag"])
	r.layer("analytics.snapshot_rebuild_ms", median(a.vals["analytics.snapshot_rebuild_ms"]))
	r.layer("analytics.state_bytes", median(a.vals["analytics.state_bytes"]))
	r.storageLayers()
}

// storageLayers books what the ring and its nodes report about
// themselves after a window: ingest counters, placement, pack state.
func (c *cluster) storageLayers(a *layerAcc, userBytes int64) {
	var records, packed, packedBytes float64
	for _, n := range c.nodes {
		st := n.store.Stats()
		if n.ing != nil {
			ist := n.ing.Stats()
			a.add("capstore.ingest_duplicates", float64(ist.Duplicates))
		}
		a.add("pack.compactions", float64(st.Compactions))
		a.add("pack.packs", float64(st.Packs))
		a.add("pack.pace_sleep_s", st.PaceSleepSeconds)
		a.add("capstore.rows_scanned", float64(st.RowsScanned))
		a.add("capstore.rows_skipped", float64(st.RowsSkipped))
		a.add("capstore.reads."+n.name, float64(n.reads.Swap(0)))
		records += float64(st.Records)
		// Per-shard state, not the store's counters: those count this
		// process's compactions and read zero after a reopen.
		for _, sh := range st.Shards {
			packed += float64(sh.PackedRecords)
			packedBytes += float64(sh.PackedBytes)
		}
	}
	a.val("pack.packed_share", ratio(packed, records))
	a.val("pack.bytes_rewritten_per_user_byte", ratio(packedBytes, float64(userBytes)))
	a.val("ring.placement_skew", c.placementSkew())
}

// storageLayers reports the capstore, replica, ring and pack figures
// every pipeline workload shares.
func (r *result) storageLayers() {
	a := r.acc
	r.layer("capstore.ingest_busy_s", r.busy["capstore.ingest"])
	r.layer("capstore.ingest_batches", r.calls["capstore.ingest"])
	r.layer("capstore.ingest_duplicates", a.sum["capstore.ingest_duplicates"])
	r.tailLayer("capstore.ingest", r.samples["capstore.ingest"])
	r.layer("capstore.query_busy_s", r.busy["capstore.query"])
	r.layer("capstore.rows_skipped_share",
		ratio(a.sum["capstore.rows_skipped"], a.sum["capstore.rows_scanned"]+a.sum["capstore.rows_skipped"]))
	r.layer("replica.fanout_bytes_per_user_byte", ratio(r.bytes["capstore.ingest"], r.bytes["replica.ingest"]))
	var reads, busiest float64
	for i := 0; i < numNodes; i++ {
		v := a.sum[fmt.Sprintf("capstore.reads.node-%d", i)]
		reads += v
		if v > busiest {
			busiest = v
		}
	}
	r.layer("replica.busiest_node_read_share", ratio(busiest, reads))
	r.layer("ring.placement_skew", median(a.vals["ring.placement_skew"]))
	r.layer("pack.compactions", a.sum["pack.compactions"])
	r.layer("pack.packs", a.sum["pack.packs"])
	r.layer("pack.packed_share", median(a.vals["pack.packed_share"]))
	r.layer("pack.bytes_rewritten_per_user_byte", median(a.vals["pack.bytes_rewritten_per_user_byte"]))
	r.layer("pack.pace_sleep_s", a.sum["pack.pace_sleep_s"])
}
