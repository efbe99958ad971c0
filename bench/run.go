package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// window is what one timed window of a workload measured.
type window struct {
	wall float64 // seconds inside the timed window
	ops  float64 // primary items processed, for per-op figures
	// vals are per-window end-to-end values; the run reports the median
	// across windows.
	vals map[string]float64
	// lats are client-observed latencies in milliseconds, pooled across
	// windows before the percentile rule is applied.
	lats map[string][]float64
	// attempted and failed count pushes, queries, leases and batches;
	// a failed, shed or refused operation also has no latency sample.
	attempted, failed int
}

func newWindow() *window {
	return &window{vals: map[string]float64{}, lats: map[string][]float64{}}
}

// layerAcc gathers the traced run's per-layer figures that do not come
// from the spans — what Stats(), Ledger() and the samplers report:
// counts summed across windows, per-window values reported as medians,
// and peaks.
type layerAcc struct {
	sum  map[string]float64
	vals map[string][]float64
	max  map[string]float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{sum: map[string]float64{}, vals: map[string][]float64{}, max: map[string]float64{}}
}

func (a *layerAcc) add(name string, v float64) { a.sum[name] += v }
func (a *layerAcc) val(name string, v float64) { a.vals[name] = append(a.vals[name], v) }
func (a *layerAcc) peak(name string, v float64) {
	if v > a.max[name] {
		a.max[name] = v
	}
}

// workload is one of the four named load shapes. prepare builds what
// the next window needs and is never inside a timed window; run is one
// closed-loop window — which it brackets with the bench.window root
// span — followed by its correctness checks, any failure of which fails
// the command.
type workload interface {
	// prepare reports whether it built anything; a workload whose
	// windows only read prepares once.
	prepare() (bool, error)
	run() (*window, error)
	// layers folds the workload's own per-layer figures into the result
	// once all traced windows are done.
	layers(r *result)
	close()
}

// workloadSpec names a workload and which of its end-to-end metrics
// fill the two uniform slots the acceptance contract gates on every
// workload: throughput_per_s and latency_p50_ms.
type workloadSpec struct {
	name       string
	why        string
	throughput string
	latency    string
	build      func(in *inputs, m *recorder, acc *layerAcc) workload
}

var workloads = []workloadSpec{
	{
		name:       "fleet_pipeline",
		why:        "the campaign a researcher runs: coordinator, 2 workers, ring, 3 compacting capds, follower, views; planner, Reader and decision idle",
		throughput: "captures_per_s", latency: "ingest_ack_p50_ms",
		build: newFleetPipeline,
	},
	{
		name:       "archive_mixed",
		why:        "reads beside writes as the store grows (Auklet): a gain for one that costs the other shows; crawler and fleet idle",
		throughput: "ingest_records_per_s", latency: "query_p50_ms",
		build: newArchiveMixed,
	},
	{
		name:       "archive_replay",
		why:        "the storage layers used the other way: cold open, decode-bound full sweep and batch re-analysis; catches ingest tricks that hurt scans",
		throughput: "reread_records_per_s", latency: "reopen_p50_ms",
		build: newArchiveReplay,
	},
	{
		name:       "consent_decide",
		why:        "the serving tier beside the pipeline: shares only obs and resilience with it, so it is the bypass workload for every pipeline change",
		throughput: "decisions_per_s", latency: "decide_batch_p50_ms",
		build: newConsentDecide,
	},
}

func specOf(name string) (workloadSpec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing, 0 where it has none.
	N int `json:"n,omitempty"`
	// TailPct says which percentile a *_tail_ms metric is.
	TailPct float64 `json:"tail_percentile,omitempty"`
}

// result is one arm of one run of one workload: its untraced windows,
// or its traced ones.
type result struct {
	Workload  string  `json:"workload"`
	Traced    bool    `json:"traced"`
	Windows   int     `json:"windows"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	PrepareS  float64 `json:"prepare_s"` // median untimed preparation per window
	WallS     float64 `json:"window_wall_s"`
	// Walls is every window's timed length, in run order.
	Walls []float64 `json:"window_walls_s"`
	// E2E holds the workload's end-to-end metrics under the names
	// ISSUE 12 gave them.
	E2E map[string]value `json:"end_to_end"`
	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]value `json:"per_layer,omitempty"`
	// Slowest names the layer with the most self time in the traced
	// run and its share of all attributed self time.
	Slowest      string  `json:"slowest_layer,omitempty"`
	SlowestShare float64 `json:"slowest_layer_share,omitempty"`

	acc  *layerAcc
	lats map[string][]float64 // pooled client-observed latencies, ms
	ops  float64
	proc procDelta
	// What the traced windows' spans add up to, by span name: seconds
	// inside the boundary, calls, request-body bytes, and per-call
	// milliseconds.
	busy, calls, bytes map[string]float64
	samples            map[string][]float64
}

// layer reports a per-layer metric; its unit is the one metrics.go
// declares for it.
func (r *result) layer(name string, v float64) {
	r.Layers[name] = value{Value: v, Unit: layerUnit[name]}
}

// unitOf derives an end-to-end metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "ratio"
}

// arm runs one workload instance, traced (m set) or not, and gathers
// its windows.
type arm struct {
	spec workloadSpec
	w    workload
	m    *recorder
	res  *result

	vals, lats          map[string][]float64
	preps, unattributed []float64
	self, selfByName    map[string]float64
	lastSpans           []span
}

func newArm(spec workloadSpec, in *inputs, m *recorder) *arm {
	res := &result{
		Workload: spec.name, Traced: m != nil,
		E2E: map[string]value{}, Layers: map[string]value{}, acc: newLayerAcc(),
		busy: map[string]float64{}, calls: map[string]float64{}, bytes: map[string]float64{},
		samples: map[string][]float64{},
	}
	return &arm{
		spec: spec, w: spec.build(in, m, res.acc), m: m, res: res,
		vals: map[string][]float64{}, lats: map[string][]float64{},
		self: map[string]float64{}, selfByName: map[string]float64{},
	}
}

// window prepares and runs one window and returns its timed length.
func (a *arm) window() (float64, error) {
	res := a.res
	before := readProc()
	t0 := time.Now()
	built, err := a.w.prepare()
	if err != nil {
		return 0, fmt.Errorf("%s: prepare: %w", a.spec.name, err)
	}
	if built {
		a.preps = append(a.preps, time.Since(t0).Seconds())
	}
	if a.m != nil {
		a.m.take() // spans of the preparation are not part of any window
	}
	// Every window starts from a collected heap, as testing.B's runs do:
	// the garbage of the previous window's checks is not this one's.
	runtime.GC()
	win, err := a.w.run()
	if err != nil {
		return 0, fmt.Errorf("%s: window %d: %w", a.spec.name, res.Windows+1, err)
	}
	res.proc.add(readProc().since(before))
	res.Windows++
	res.Attempted += win.attempted
	res.Failed += win.failed
	res.ops += win.ops
	res.Walls = append(res.Walls, win.wall)
	for k, v := range win.vals {
		a.vals[k] = append(a.vals[k], v)
	}
	for k, v := range win.lats {
		a.lats[k] = append(a.lats[k], v...)
	}
	if a.m != nil {
		// Only what happened inside the root span counts: the checks
		// after a window also call into the layers.
		a.lastSpans = windowSpans(a.m.take())
		for _, s := range a.lastSpans {
			d := float64(s.dur()) / 1e9
			res.busy[s.Name] += d
			res.calls[s.Name]++
			res.bytes[s.Name] += float64(s.Bytes)
			res.samples[s.Name] = append(res.samples[s.Name], d*1e3)
		}
		b := attribute(a.lastSpans, rootID(a.lastSpans))
		for l, s := range b.SelfSeconds {
			a.self[l] += s
		}
		for n, s := range b.NameSeconds {
			a.selfByName[n] += s
		}
		a.unattributed = append(a.unattributed, b.Unattributed)
	}
	return win.wall, nil
}

// finish folds the arm's windows into its end-to-end metrics.
func (a *arm) finish() *result {
	res := a.res
	res.PrepareS = median(a.preps)
	res.WallS = median(res.Walls)
	for k, v := range a.vals {
		res.E2E[k] = value{Value: median(v), Unit: unitOf(k)}
	}
	for k, v := range a.lats {
		s := summarize(v)
		res.E2E[k+"_p50_ms"] = value{Value: s.P50, Unit: "ms", N: s.N}
	}
	res.lats = a.lats
	res.E2E["failed_ops_share"] = value{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", N: res.Attempted}
	return res
}

// measure runs windows of one workload until at least seconds of timed
// window have been measured and returns the untraced result. With
// traced set, untraced and traced windows alternate — so that a drift
// in the host's speed falls on both alike — and the second result
// carries the per-layer metrics, the span budget, the untraced
// end-to-end figures under e2e.* and the tracing overhead; spans of the
// last traced window are written to <out>/<workload>.trace.ndjson.
func measure(spec workloadSpec, in *inputs, seconds float64, traced bool, out string) (plain, withTrace *result, err error) {
	arms := []*arm{newArm(spec, in, nil)}
	if traced {
		arms = append(arms, newArm(spec, in, newRecorder()))
	}
	defer func() {
		for _, a := range arms {
			a.w.close()
		}
	}()
	for measured := 0.0; measured < seconds; {
		for _, a := range arms {
			wall, err := a.window()
			if err != nil {
				return nil, nil, err
			}
			measured += wall
		}
	}
	for _, a := range arms {
		a.w.close() // nothing of the system runs during the micro-measurements
	}
	plain = arms[0].finish()
	if !traced {
		return plain, nil, nil
	}

	a := arms[1]
	res := a.finish()
	b := budget{SelfSeconds: a.self}
	res.Slowest, res.SlowestShare = b.slowest()
	for _, l := range systemLayers {
		res.layer(l+".self_s", a.self[l])
	}
	res.layer("replica.ingest_self_s", a.selfByName["replica.ingest"])
	res.layer("bench.self_s", a.self["bench"])
	res.layer("bench.unattributed_share", median(a.unattributed))
	res.layer("bench.slowest_layer_share", res.SlowestShare)
	res.layer("bench.trace_overhead_share", ratio(res.WallS-plain.WallS, plain.WallS))
	for name, v := range plain.E2E {
		res.Layers["e2e."+name] = v
	}
	if in.pipeline != nil && spec.name != "consent_decide" {
		if err := storeMicro(res, in); err != nil {
			return nil, nil, fmt.Errorf("%s: store micro-measurements: %w", spec.name, err)
		}
	}
	a.w.layers(res)
	res.procLayers()
	if out != "" {
		if err := writeSpans(filepath.Join(out, spec.name+".trace.ndjson"), a.lastSpans); err != nil {
			return nil, nil, err
		}
	}
	return plain, res, nil
}

// systemLayers are the modules of the system under test, in pipeline
// order; every one gets a self-time line in every traced result, zero
// where the workload bypasses it.
var systemLayers = []string{"crawler", "fleet", "replica", "capstore", "analytics", "decision"}

// windowSpans keeps the root span and what happened under it; spans
// that ended after the root (a trailing delivery or sweep) are outside
// the window.
func windowSpans(spans []span) []span {
	root := rootID(spans)
	var rs span
	for _, s := range spans {
		if s.ID == root {
			rs = s
		}
	}
	out := spans[:0]
	for _, s := range spans {
		if s.Start >= rs.Start && s.Start <= rs.End {
			out = append(out, s)
		}
	}
	return out
}

func rootID(spans []span) int {
	for _, s := range spans {
		if s.Name == "bench.window" {
			return s.ID
		}
	}
	return 0
}

// tailLayer reports a timing's tail under name: the highest of
// p90/p95/p99/p99.9 that has ten samples beyond it (the value records
// which), or 0 when the sample supports none.
func (r *result) tailLayer(name string, samples []float64) {
	s := summarize(samples)
	r.Layers[name+"_tail_ms"] = value{Value: s.Tail, Unit: "ms", N: s.N, TailPct: s.TailP}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// workDir makes a fresh directory for one window's stores.
func workDir(in *inputs, prefix string) (string, error) {
	return os.MkdirTemp(in.dir, prefix)
}
