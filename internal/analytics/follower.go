package analytics

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/capstore"
	"repro/internal/capturedb"
	"repro/internal/detect"
)

// Source is where a follower reads committed capture records from: a
// local store or a capd/capring node over HTTP. Counts reports the
// committed record count per shard; Stream returns the shard's
// logical record stream starting at record index from. Both see only
// committed records, so per-shard streams are append-only and any
// previously read prefix never changes.
type Source interface {
	Counts() ([]int, error)
	Stream(shard, from int) (io.ReadCloser, error)
}

// StoreSource reads from an open local store (the batch/bootstrap
// path).
type StoreSource struct{ Store *capstore.Store }

// Counts reports per-shard committed record counts.
func (s StoreSource) Counts() ([]int, error) {
	stats := s.Store.Stats()
	out := make([]int, len(stats.Shards))
	for i, sh := range stats.Shards {
		out[i] = sh.Records
	}
	return out, nil
}

// Stream streams one shard's records from the given index.
func (s StoreSource) Stream(shard, from int) (io.ReadCloser, error) {
	pr, pw := io.Pipe()
	go func() {
		_, _, err := s.Store.StreamShard(shard, from, pw)
		pw.CloseWithError(err)
	}()
	return pr, nil
}

// ClientSource reads from a capd (or capring) node over HTTP — the
// live-follow path analyzed runs in production.
type ClientSource struct{ Client *capstore.Client }

// Counts reports per-shard committed record counts.
func (s ClientSource) Counts() ([]int, error) {
	stats, err := s.Client.Stats()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(stats.Shards))
	for i, sh := range stats.Shards {
		out[i] = sh.Records
	}
	return out, nil
}

// Stream streams one shard's records from the given index.
func (s ClientSource) Stream(shard, from int) (io.ReadCloser, error) {
	return s.Client.SegmentReader(shard, from)
}

// FollowerConfig parameterizes a Follower.
type FollowerConfig struct {
	Source Source
	Engine *Engine

	// CheckpointDir enables durable checkpoints when non-empty.
	CheckpointDir string
	// CheckpointEvery is the record interval between checkpoints
	// (default 4096).
	CheckpointEvery int64
	// PollInterval is the idle delay between sweeps (default 250ms).
	PollInterval time.Duration
	// BatchSize is the per-Apply chunk size (default 256).
	BatchSize int
}

func (c FollowerConfig) withDefaults() FollowerConfig {
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 4096
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	return c
}

// Follower advances an Engine against a Source: it polls per-shard
// committed counts, streams each shard's unapplied suffix, folds it
// in chunks, and periodically checkpoints the engine state. One
// follower is the engine's only writer.
type Follower struct {
	cfg        FollowerConfig
	lastCkpt   int64
	lastCounts []int
	// rr reads every shard stream in turn, so a sweep allocates no
	// reader buffer; scan turns its lines into rows, and rows holds
	// one batch of them.
	rr   *capturedb.RecordReader
	scan rowScanner
	rows []analysis.Row
}

// NewFollower returns a follower over the config.
func NewFollower(cfg FollowerConfig) *Follower {
	cfg = cfg.withDefaults()
	return &Follower{
		cfg:      cfg,
		lastCkpt: -1,
		rr:       capturedb.NewRecordReader(nil),
		scan:     rowScanner{det: cfg.Engine.det, names: make(map[string]string)},
		rows:     make([]analysis.Row, 0, cfg.BatchSize),
	}
}

// rowScanner builds rows from stored lines: one key scan
// (capturedb.Canonical) and one detection over the scanned hosts per
// line, and no decode. Its strings are interned, so a row shares
// nothing with the line it came from, and a domain or column already
// seen costs no allocation.
type rowScanner struct {
	det   *detect.Detector
	keys  capturedb.Keys
	names map[string]string
}

// row scans one wire line into its row. It fails on exactly the lines
// capturedb.Decode refuses, with Decode's error.
func (s *rowScanner) row(line []byte) (analysis.Row, error) {
	if _, err := capturedb.Canonical(line, &s.keys); err != nil {
		return analysis.Row{}, err
	}
	return s.rowOf(&s.keys), nil
}

// rowOf builds the row of a record with these keys.
func (s *rowScanner) rowOf(k *capturedb.Keys) analysis.Row {
	r := analysis.Row{
		Domain: s.name(k.Domain), Vantage: s.name(k.Vantage), Config: s.name(k.Config),
		Day: k.Day, Failed: k.Failed,
	}
	if r.Folded() {
		r.CMP, r.Mask = s.det.DetectHosts(k.Hosts)
	}
	return r
}

// name returns b as an interned string.
func (s *rowScanner) name(b []byte) string {
	if n, ok := s.names[string(b)]; ok {
		return n
	}
	n := string(b)
	s.names[n] = n
	return n
}

// Resume loads the newest valid checkpoint into the engine, if any.
// Returns the resumed cursor, or -1 for a cold start.
func (f *Follower) Resume() (int64, error) {
	if f.cfg.CheckpointDir == "" {
		return -1, nil
	}
	cursor, payload, err := LoadLatestCheckpoint(f.cfg.CheckpointDir)
	if err != nil || cursor < 0 {
		return -1, err
	}
	if err := f.cfg.Engine.UnmarshalState(payload); err != nil {
		return -1, err
	}
	f.lastCkpt = cursor
	f.cfg.Engine.m.checkpointCursor.Set(float64(cursor))
	return cursor, nil
}

// Checkpoint durably writes the engine state now.
func (f *Follower) Checkpoint() error {
	if f.cfg.CheckpointDir == "" {
		return nil
	}
	payload, err := f.cfg.Engine.MarshalState()
	if err != nil {
		return err
	}
	cursor := f.cfg.Engine.Cursor()
	if _, err := WriteCheckpoint(f.cfg.CheckpointDir, cursor, payload); err != nil {
		return err
	}
	f.lastCkpt = cursor
	f.cfg.Engine.m.checkpoints.Add(1)
	f.cfg.Engine.m.checkpointCursor.Set(float64(cursor))
	return nil
}

// maybeCheckpoint checkpoints when the engine advanced far enough
// past the last durable cursor.
func (f *Follower) maybeCheckpoint() error {
	if f.cfg.CheckpointDir == "" {
		return nil
	}
	if f.cfg.Engine.Cursor()-f.lastCkpt < f.cfg.CheckpointEvery {
		return nil
	}
	return f.Checkpoint()
}

// Lag returns the source cursor minus the engine cursor as of the
// last sweep (0 before any sweep).
func (f *Follower) Lag() int64 {
	var total int64
	for _, n := range f.lastCounts {
		total += int64(n)
	}
	lag := total - f.cfg.Engine.Cursor()
	if lag < 0 {
		lag = 0
	}
	return lag
}

// Sweep performs one poll pass: for every shard whose committed count
// exceeds the engine's shard cursor, stream and fold the suffix.
// Returns how many records were applied.
func (f *Follower) Sweep() (int64, error) {
	counts, err := f.cfg.Source.Counts()
	if err != nil {
		return 0, err
	}
	f.lastCounts = counts
	eng := f.cfg.Engine
	var applied int64
	for shard, have := range counts {
		cur := eng.ShardCursor(shard)
		if int64(have) <= cur {
			continue
		}
		n, err := f.followShard(shard, int(cur))
		applied += n
		if err != nil {
			f.updateLag()
			return applied, fmt.Errorf("analytics: follow shard %d from %d: %w", shard, cur, err)
		}
	}
	f.updateLag()
	if applied > 0 {
		if err := f.maybeCheckpoint(); err != nil {
			return applied, err
		}
	}
	return applied, nil
}

func (f *Follower) updateLag() {
	f.cfg.Engine.m.lagRecords.Set(float64(f.Lag()))
}

// followShard streams one shard from record index from to the end of
// the stream, folding the records in batches. Each line becomes a row
// through one key scan; nothing on this path decodes a record. The
// stream may hold records committed after Counts looked; they are
// committed all the same, so folding them keeps the engine at a
// committed cursor, and reading to the end lets an HTTP source keep
// its connection.
func (f *Follower) followShard(shard, from int) (int64, error) {
	rc, err := f.cfg.Source.Stream(shard, from)
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	rr := f.rr
	rr.Reset(rc)
	defer rr.Reset(nil)
	rows := f.rows[:0]
	var applied int64
	flush := func() {
		if len(rows) > 0 {
			f.cfg.Engine.applyRows(shard, rows)
			applied += int64(len(rows))
			rows = rows[:0]
		}
	}
	for {
		line, err := rr.NextLine()
		if err != nil {
			flush()
			if err == io.EOF || errors.Is(err, capturedb.ErrTruncated) {
				// The committed prefix we read is valid; a short
				// stream just means the next sweep resumes here.
				return applied, nil
			}
			return applied, err
		}
		row, err := f.scan.row(line)
		if err != nil {
			flush()
			return applied, fmt.Errorf("capturedb: line %d: %w", rr.Line(), err)
		}
		rows = append(rows, row)
		if len(rows) >= f.cfg.BatchSize {
			flush()
		}
	}
}

// Bootstrap folds everything the source currently has — the cold
// start path. It sweeps until a pass applies nothing, so a store
// receiving writes during bootstrap is caught up to its live edge,
// then checkpoints.
func (f *Follower) Bootstrap() error {
	for {
		applied, err := f.Sweep()
		if err != nil {
			return err
		}
		if applied == 0 {
			break
		}
	}
	f.cfg.Engine.m.bootstraps.Add(1)
	if f.cfg.CheckpointDir == "" {
		return nil
	}
	return f.Checkpoint()
}

// Run follows the source until ctx is done, sweeping every
// PollInterval. Transient source errors are retried on the next tick;
// the error returned is always ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	t := time.NewTicker(f.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			// Final checkpoint so a clean shutdown resumes exactly.
			f.Checkpoint()
			return ctx.Err()
		case <-t.C:
			f.Sweep()
		}
	}
}

// BatchEngine folds an entire store and returns the engine — the
// batch path cmd/analyze -store runs. Because it drives the same
// folds through the same Source machinery as the live follower, its
// snapshots are byte-identical to an incremental run at the same
// cursor.
func BatchEngine(store *capstore.Store, cfg Config) (*Engine, error) {
	eng := NewEngine(cfg)
	f := NewFollower(FollowerConfig{Source: StoreSource{Store: store}, Engine: eng})
	if err := f.Bootstrap(); err != nil {
		return nil, err
	}
	return eng, nil
}
