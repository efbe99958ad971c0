package main

import (
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/capstore"
	"repro/internal/capture"
	"repro/internal/capturedb"
)

// procSample is the process's cumulative cost so far.
type procSample struct {
	cpuS    float64
	rssMB   float64 // peak, so far
	mallocs uint64
	gcNS    uint64
}

// procDelta is the cost of a stretch of the run. The load generator
// shares the process with the system under test, so these cover both.
type procDelta struct {
	cpuS, peakRSSMB, gcPauseMS float64
	mallocs                    float64
}

func readProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procSample{
		cpuS:    tv(ru.Utime) + tv(ru.Stime),
		rssMB:   float64(ru.Maxrss) / 1024, // Linux reports KiB
		mallocs: ms.Mallocs,
		gcNS:    ms.PauseTotalNs,
	}
}

func (p procSample) since(before procSample) procDelta {
	return procDelta{
		cpuS:      p.cpuS - before.cpuS,
		peakRSSMB: p.rssMB,
		mallocs:   float64(p.mallocs - before.mallocs),
		gcPauseMS: float64(p.gcNS-before.gcNS) / 1e6,
	}
}

// add accumulates the cost of one more window.
func (d *procDelta) add(w procDelta) {
	d.cpuS += w.cpuS
	d.mallocs += w.mallocs
	d.gcPauseMS += w.gcPauseMS
	d.peakRSSMB = w.peakRSSMB
}

func (r *result) procLayers() {
	r.layer("proc.cpu_s", r.proc.cpuS)
	r.layer("proc.peak_rss_mb", r.proc.peakRSSMB)
	r.layer("proc.mallocs_per_op", ratio(r.proc.mallocs, r.ops))
	r.layer("proc.gc_pause_ms", r.proc.gcPauseMS)
}

// mallocsDuring counts heap allocations made by fn. Nothing else runs
// while the micro-measurements do, so the count repeats exactly.
func mallocsDuring(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// storeMicro measures, on a fixed sample of the corpus and with
// nothing else running, the layers no window isolates: the wire codec,
// one store's own sweep, and a full compaction.
func storeMicro(r *result, in *inputs) error {
	p := in.pipeline
	sample := p.corpus
	if len(sample) > in.sz.CodecRecs {
		sample = sample[:in.sz.CodecRecs]
	}
	n := float64(len(sample))

	lines := make([][]byte, len(sample))
	var encErr, decErr error
	var bytes float64
	t0 := time.Now()
	encAllocs := mallocsDuring(func() {
		for i, c := range sample {
			if lines[i], encErr = capturedb.Encode(c); encErr != nil {
				return
			}
		}
	})
	encS := time.Since(t0).Seconds()
	if encErr != nil {
		return encErr
	}
	for _, l := range lines {
		bytes += float64(len(l))
	}
	t0 = time.Now()
	decAllocs := mallocsDuring(func() {
		for _, l := range lines {
			if _, decErr = capturedb.Decode(l); decErr != nil {
				return
			}
		}
	})
	decS := time.Since(t0).Seconds()
	if decErr != nil {
		return decErr
	}
	r.layer("capturedb.encode_ns_per_rec", encS*1e9/n)
	r.layer("capturedb.decode_ns_per_rec", decS*1e9/n)
	// The slice of lines itself is the harness's, not the codec's.
	r.layer("capturedb.encode_allocs_per_rec", encAllocs/n)
	r.layer("capturedb.decode_allocs_per_rec", decAllocs/n)
	r.layer("capturedb.bytes_per_rec", bytes/n)

	rows := 0
	t0 = time.Now()
	err := p.base.Query(capturedb.Query{IncludeFailed: true}, func(*capture.Capture) bool { rows++; return true })
	if err != nil {
		return err
	}
	r.layer("capstore.local_sweep_rows_per_s", float64(rows)/time.Since(t0).Seconds())

	dir := filepath.Join(in.dir, "compact-micro")
	defer os.RemoveAll(dir)
	store, err := capstore.Create(dir, numShards)
	if err != nil {
		return err
	}
	defer store.Close()
	for _, c := range sample {
		store.Record(c)
	}
	if err := store.Flush(); err != nil {
		return err
	}
	t0 = time.Now()
	if _, err := store.CompactAll(); err != nil {
		return err
	}
	r.layer("pack.compact_mb_per_s", bytes/1e6/time.Since(t0).Seconds())
	return nil
}
