package analytics

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/detect"
	"repro/internal/gvl"
	"repro/internal/obs"
)

// Config parameterizes an Engine. The zero value reproduces the
// paper: default detector fingerprints, paper interpolation, and the
// default GVL history.
type Config struct {
	// GVL generates the deterministic vendor-list history backing the
	// gvl view; a zero config means gvl.DefaultHistoryConfig().
	GVL gvl.HistoryConfig

	// Registry and Tracer wire the obs surface; both may be nil.
	Registry *obs.Registry
	Tracer   *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.GVL.Versions == 0 {
		c.GVL = gvl.DefaultHistoryConfig()
	}
	return c
}

// Engine folds a capture stream into the materialized views and
// serializes them on demand. All state is keyed by the ingest commit
// cursor: after applying the first k committed records of a store,
// every snapshot is byte-identical to a batch run over a store
// truncated to those k records, regardless of how the records were
// interleaved across shards on the way in (the fold contract in
// internal/analysis). Engine is safe for concurrent use.
type Engine struct {
	cfg Config
	det *detect.Detector // the Table A.2 rules
	m   *metrics

	mu       sync.Mutex
	presence *analysis.PresenceFold
	coverage *analysis.CoverageFold
	// shardCursors[i] counts committed records applied from shard i;
	// cursor is their sum — the total ingest commit cursor.
	shardCursors map[int]int64
	cursor       int64

	// gvlPoints is the static payload of the gvl view, shared by every
	// engine of the same GVL config and never written.
	gvlPoints []GVLViewPoint

	// snaps caches serialized views; emptied by every fold and restore.
	snaps map[string][]byte
}

// NewEngine returns an empty engine.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	det := detect.Default()
	e := &Engine{
		cfg:          cfg,
		det:          det,
		presence:     analysis.NewPresenceFold(det),
		coverage:     analysis.NewCoverageFold(),
		shardCursors: make(map[int]int64),
		gvlPoints:    gvlPointsOf(cfg.GVL),
		snaps:        make(map[string][]byte),
	}
	e.m = newMetrics(cfg.Registry, e)
	return e
}

// Apply folds a batch of committed records from one shard, advancing
// that shard's cursor by len(caps). Callers must deliver each shard's
// records in its commit order; interleaving across shards is free.
func (e *Engine) Apply(shard int, caps []*capture.Capture) {
	e.applyRows(shard, analysis.RowsOf(e.det, caps))
}

// applyRows is Apply over classified rows, the form a follower builds
// from stored lines. Each fold reads the one classification a row
// carries.
func (e *Engine) applyRows(shard int, rows []analysis.Row) {
	if len(rows) == 0 {
		return
	}
	start := time.Now()
	e.mu.Lock()
	e.presence.FoldRows(rows)
	e.coverage.FoldRows(rows)
	e.shardCursors[shard] += int64(len(rows))
	e.cursor += int64(len(rows))
	clear(e.snaps)
	e.mu.Unlock()
	e.m.foldRecords.Add(int64(len(rows)))
	e.m.foldSeconds.Observe(time.Since(start).Seconds())
}

// Cursor returns the total commit cursor (records applied).
func (e *Engine) Cursor() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cursor
}

// ShardCursor returns how many records of shard i were applied.
func (e *Engine) ShardCursor(i int) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shardCursors[i]
}

// ShardCursors returns a copy of the per-shard cursors.
func (e *Engine) ShardCursors() map[int]int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[int]int64, len(e.shardCursors))
	for k, v := range e.shardCursors {
		out[k] = v
	}
	return out
}

// Views returns the catalog of materialized views at the current
// cursor.
func (e *Engine) Views() []ViewInfo {
	cursor := e.Cursor()
	names := ViewNames()
	out := make([]ViewInfo, 0, len(names))
	for _, name := range names {
		out = append(out, ViewInfo{Name: name, Description: describeView(name), Cursor: cursor})
	}
	return out
}

// ErrUnknownView reports a view name outside ViewNames.
type ErrUnknownView struct{ Name string }

func (e *ErrUnknownView) Error() string { return fmt.Sprintf("analytics: unknown view %q", e.Name) }

// Snapshot serializes the named view at the current cursor. Snapshot
// bytes are cached until the next Apply, so repeated queries at one
// cursor are a map lookup.
func (e *Engine) Snapshot(name string) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked(name)
}

func (e *Engine) snapshotLocked(name string) ([]byte, error) {
	if b, ok := e.snaps[name]; ok {
		return b, nil
	}
	start := time.Now()
	var v any
	switch name {
	case ViewAdoption:
		v = buildAdoptionView(e.presence.Presence(), e.cursor)
	case ViewCoverage:
		v = buildCoverageView(e.coverage, e.cursor)
	case ViewMarketShare:
		v = buildMarketShareView(e.presence.Presence(), e.cursor)
	case ViewGVL:
		v = &GVLView{View: ViewGVL, Cursor: e.cursor, Points: e.gvlPoints}
	default:
		return nil, &ErrUnknownView{Name: name}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("analytics: serialize view %q: %w", name, err)
	}
	e.snaps[name] = b
	e.m.viewUpdateSeconds.With(name).Observe(time.Since(start).Seconds())
	return b, nil
}

// SnapshotAll serializes every view at one cursor, in ViewNames
// order. The lock is held across all views, so the snapshots are
// mutually consistent.
func (e *Engine) SnapshotAll() (map[string][]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string][]byte, len(ViewNames()))
	for _, name := range ViewNames() {
		b, err := e.snapshotLocked(name)
		if err != nil {
			return nil, err
		}
		out[name] = b
	}
	return out, nil
}

// engineState is the checkpoint wire form of an Engine.
type engineState struct {
	Cursor       int64            `json:"cursor"`
	ShardCursors map[string]int64 `json:"shard_cursors"`
	Presence     json.RawMessage  `json:"presence"`
	Coverage     json.RawMessage  `json:"coverage"`
}

// MarshalState serializes the fold state and cursors for
// checkpointing. The view cache and GVL payload are derived and not
// persisted.
func (e *Engine) MarshalState() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	pres, err := e.presence.MarshalState()
	if err != nil {
		return nil, err
	}
	cov, err := e.coverage.MarshalState()
	if err != nil {
		return nil, err
	}
	st := engineState{
		Cursor:       e.cursor,
		ShardCursors: make(map[string]int64, len(e.shardCursors)),
		Presence:     pres,
		Coverage:     cov,
	}
	for shard, n := range e.shardCursors {
		st.ShardCursors[fmt.Sprintf("%d", shard)] = n
	}
	return json.Marshal(st)
}

// UnmarshalState restores checkpointed fold state, replacing the
// engine's current state.
func (e *Engine) UnmarshalState(b []byte) error {
	var st engineState
	if err := json.Unmarshal(b, &st); err != nil {
		return fmt.Errorf("analytics: engine state: %w", err)
	}
	presence := analysis.NewPresenceFold(e.det)
	if err := presence.UnmarshalState(st.Presence); err != nil {
		return err
	}
	coverage := analysis.NewCoverageFold()
	if err := coverage.UnmarshalState(st.Coverage); err != nil {
		return err
	}
	shardCursors := make(map[int]int64, len(st.ShardCursors))
	var sum int64
	for shardStr, n := range st.ShardCursors {
		var shard int
		if _, err := fmt.Sscanf(shardStr, "%d", &shard); err != nil {
			return fmt.Errorf("analytics: engine state: bad shard key %q", shardStr)
		}
		shardCursors[shard] = n
		sum += n
	}
	if sum != st.Cursor {
		return fmt.Errorf("analytics: engine state: cursor %d != shard sum %d", st.Cursor, sum)
	}
	e.mu.Lock()
	e.presence = presence
	e.coverage = coverage
	e.shardCursors = shardCursors
	e.cursor = st.Cursor
	e.snaps = make(map[string][]byte)
	e.mu.Unlock()
	return nil
}

// SortedShards returns the engine's shard ids in ascending order
// (for deterministic health payloads).
func (e *Engine) SortedShards() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, 0, len(e.shardCursors))
	for shard := range e.shardCursors {
		out = append(out, shard)
	}
	sort.Ints(out)
	return out
}
