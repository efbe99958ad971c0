package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/analytics"
)

// archiveReplay uses the storage layers the other way round: on a
// fully loaded ring — three quarters of every segment compacted into
// packs, the last quarter still in tails — each window restarts every
// capd cold, sweeps the whole ring through replica.Reader, and re-runs
// the batch analysis over it.
type archiveReplay struct {
	in  *inputs
	m   *recorder
	acc *layerAcc
	c   *cluster
}

func newArchiveReplay(in *inputs, m *recorder, acc *layerAcc) workload {
	return &archiveReplay{in: in, m: m, acc: acc}
}

// prepare loads the ring once; every window after the first reuses it,
// because a window only reads.
func (a *archiveReplay) prepare() (bool, error) {
	if a.c != nil {
		return false, nil
	}
	dir, err := workDir(a.in, "replay-")
	if err != nil {
		return false, err
	}
	if a.c, err = newCluster(dir, a.in.sz, a.m); err != nil {
		return false, err
	}
	p := a.in.pipeline
	cut := len(p.corpus) * 3 / 4
	if err := pushAll(a.c, nil, p.corpus[:cut], nil); err != nil {
		return false, err
	}
	if err := a.c.writer.WaitConverged(30 * time.Second); err != nil {
		return false, err
	}
	for _, n := range a.c.nodes {
		if _, err := n.store.CompactAll(); err != nil {
			return false, err
		}
	}
	if err := pushAll(a.c, nil, p.corpus[cut:], nil); err != nil {
		return false, err
	}
	return true, a.c.writer.WaitConverged(30 * time.Second)
}

func (a *archiveReplay) close() {
	if a.c != nil {
		a.c.close()
		a.c = nil
	}
}

func (a *archiveReplay) run() (*window, error) {
	p := a.in.pipeline
	win := newWindow()
	var placed int64

	endRoot := a.m.start("bench.window", "")
	t0 := time.Now()
	for _, n := range a.c.nodes {
		d, err := n.reopen(a.m)
		if err != nil {
			return nil, fmt.Errorf("reopening %s: %w", n.name, err)
		}
		win.lats["reopen"] = append(win.lats["reopen"], d.Seconds()*1e3)
		placed += n.store.Len()
		if a.m != nil {
			for _, sh := range n.store.Stats().Shards {
				a.acc.add("capstore.open_tail_records", float64(sh.TailRecords))
			}
		}
	}

	// Sweep: every row of every segment through the ring's reader,
	// checked against the corpus as it streams.
	end := a.m.start("replica.sweep", "")
	st := time.Now()
	rows, err := checkSweep(a.c, p)
	sweepS := time.Since(st).Seconds()
	end()
	if err != nil {
		return nil, err
	}

	// Replay: batch re-analysis of the whole archive. Building the
	// engine generates the GVL history, a fixed cost that would
	// swamp a four-day corpus; it has its own span and is not part
	// of replay_records_per_s.
	end = a.m.start("analytics.engine", "")
	eng := analytics.NewEngine(analytics.Config{})
	end()
	fol := analytics.NewFollower(analytics.FollowerConfig{Source: a.c.source(), Engine: eng})
	st = time.Now()
	end = a.m.start("analytics.bootstrap", "")
	err = fol.Bootstrap()
	end()
	if err != nil {
		return nil, err
	}
	end = a.m.start("analytics.snapshot", "")
	snaps, err := eng.SnapshotAll()
	end()
	replayS := time.Since(st).Seconds()
	if err != nil {
		return nil, err
	}
	folded := int(eng.Cursor())
	for name, want := range p.views {
		if !bytes.Equal(snaps[name], want) {
			return nil, fmt.Errorf("replayed view %q differs from the batch view over the baseline", name)
		}
	}
	win.wall = time.Since(t0).Seconds()
	endRoot()

	// Correctness beyond the inline sweep and view checks: the reopened
	// stores hold exactly the placed segments of the baseline.
	var want int64
	for _, n := range a.c.nodes {
		for _, s := range a.c.writer.Ring().SegmentsOf(n.name, numShards) {
			want += int64(p.manifest.Segments[s].Records)
		}
	}
	if placed != want {
		return nil, fmt.Errorf("reopened nodes hold %d records, placement of the baseline gives %d", placed, want)
	}
	if err := a.c.checkManifests(p.manifest); err != nil {
		return nil, err
	}

	win.ops = float64(rows + folded)
	win.vals["sweep_rows_per_s"] = float64(rows) / sweepS
	win.vals["replay_records_per_s"] = float64(folded) / replayS
	win.vals["reread_records_per_s"] = float64(rows+folded) / (sweepS + replayS)
	win.attempted = len(a.c.nodes) + 2 // the reopens, the sweep, the replay
	if a.m != nil {
		a.acc.add("replica.sweep_s", sweepS)
		a.acc.add("replica.sweep_rows", float64(rows))
		a.acc.add("analytics.records_folded", float64(folded))
		a.c.storageLayers(a.acc, p.userBytes)
	}
	return win, nil
}

func (a *archiveReplay) layers(r *result) {
	acc := r.acc
	opens := r.calls["capstore.open"]
	r.layer("capstore.open_ms_per_node", ratio(r.busy["capstore.open"]*1e3, opens))
	r.layer("capstore.open_tail_records", ratio(acc.sum["capstore.open_tail_records"], opens))
	r.layer("replica.reader_busy_s", r.busy["replica.sweep"])
	r.layer("capstore.rows_scanned_per_result", ratio(acc.sum["capstore.rows_scanned"], acc.sum["replica.sweep_rows"]))
	r.layer("analytics.records_folded", acc.sum["analytics.records_folded"])
	r.layer("analytics.fold_ns_per_rec", ratio(r.busy["analytics.bootstrap"]*1e9, acc.sum["analytics.records_folded"]))
	r.layer("analytics.snapshot_rebuild_ms", ratio(r.busy["analytics.snapshot"]*1e3, r.calls["analytics.snapshot"]))
	// The same rows from one local store, against the three-node sweep.
	if local := r.Layers["capstore.local_sweep_rows_per_s"].Value; local > 0 {
		ring := ratio(acc.sum["replica.sweep_rows"], acc.sum["replica.sweep_s"])
		r.layer("replica.sweep_vs_local_ratio", ratio(local, ring))
	}
	r.storageLayers()
}
