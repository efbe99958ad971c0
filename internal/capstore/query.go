package capstore

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/capstore/pack"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// Query streams matching captures to fn in canonical store order
// (shard number, then pack-chain position, then tail position);
// returning false from fn stops early. Each shard is answered by the
// most selective access path (see plan): domain index, request-host
// posting list, or a scan pruned by per-pack and tail day ranges.
// Results are exactly those a linear capturedb.Scan over the logical
// record stream (packs then tail, per shard) would yield. Each match is
// decoded once, for fn; the executor itself hands on stored lines (see
// exec).
//
// Queries running concurrently with ingest and compaction see a
// consistent per-shard prefix of the store: each shard's pack chain,
// tail state, and tail file handle are snapshotted under one lock
// hold, so a record is visible exactly once — in a pack or in the
// tail — and only once it is fully indexed.
func (s *Store) Query(q capturedb.Query, fn func(*capture.Capture) bool) error {
	return capturedb.DecodeLines(func(emit func([]byte) bool) error {
		_, err := s.run(context.Background(), 0, len(s.shards), q, emit)
		return err
	}, fn)
}

// QueryShard is Query restricted to shard i — the unit of the
// replicated read fan-out, where each segment is served by one of its
// replicas. The stream is the shard's slice of Query's, so a reader
// that lost a replica mid-segment resumes on another by row offset.
func (s *Store) QueryShard(i int, q capturedb.Query, fn func(*capture.Capture) bool) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("capstore: no shard %d", i)
	}
	return capturedb.DecodeLines(func(emit func([]byte) bool) error {
		_, err := s.run(context.Background(), i, i+1, q, emit)
		return err
	}, fn)
}

// Count returns the number of matches. When every predicate of q is
// index metadata (see indexOnly) no record is read or decoded.
func (s *Store) Count(q capturedb.Query) (int, error) {
	n, err := s.run(context.Background(), 0, len(s.shards), q, nil)
	return int(n), err
}

// run answers q over shards [lo, hi) — the whole store or one segment
// — and is the one place a query is counted, timed and traced. fn gets
// each match's stored line, valid only during the call; a nil fn asks
// only for the number of matches, which run returns. ctx is consulted
// every ctxEvery records read.
func (s *Store) run(ctx context.Context, lo, hi int, q capturedb.Query, fn func(line []byte) bool) (int64, error) {
	s.counters.queries.Add(1)
	m := s.metrics.Load()
	var start time.Time
	if m != nil {
		start = m.now()
	}
	var span *obs.Span
	if tr := s.tracer.Load(); tr != nil {
		span = tr.Start("query", obs.A("path", pathOf(q)))
	}

	e := &exec{ctx: ctx, q: q, fn: fn, settled: indexOnly(q)}
	var err error
	for i := lo; i < hi && err == nil && !e.stop; i++ {
		err = s.plan(i, e)
	}
	s.counters.rowsScanned.Add(e.scanned)
	s.counters.rowsSkipped.Add(e.skipped)
	if m != nil {
		m.QuerySeconds.Observe(m.now().Sub(start).Seconds())
		m.RowsScanned.Observe(float64(e.scanned))
		m.RowsSkipped.Observe(float64(e.skipped))
	}
	if span != nil {
		span.Attr("scanned", strconv.FormatInt(e.scanned, 10))
		span.Attr("skipped", strconv.FormatInt(e.skipped, 10))
		span.End()
	}
	return e.matched, err
}

// The access paths, as the query span's path attribute names them.
const (
	pathDomain = "domain-index"
	pathHost   = "host-index"
	pathScan   = "scan"
)

// pathOf picks q's access path: the domain index when a domain is
// named (a domain lives in one shard, so it is the most selective),
// else the request-host posting lists, else the day-pruned scan.
func pathOf(q capturedb.Query) string {
	switch {
	case q.Domain != "":
		return pathDomain
	case q.RequestHost != "":
		return pathHost
	}
	return pathScan
}

// indexOnly reports whether per-record index metadata decides q
// entirely: at most one indexed key (the posting list or the scan
// enumerates the candidates) plus day bounds and the failed flag
// (MatchMeta). A vantage, or a second key next to the one the walk
// follows, lives only in the record body.
func indexOnly(q capturedb.Query) bool {
	return q.Vantage == "" && (q.Domain == "" || q.RequestHost == "")
}

// plan answers e's query on shard i by the query's access path. A
// domain query on a shard the domain does not hash to is answered
// "nothing here" without a read.
func (s *Store) plan(i int, e *exec) error {
	sh := s.shards[i]
	switch pathOf(e.q) {
	case pathDomain:
		if ShardOf(e.q.Domain, len(s.shards)) != i {
			sh.mu.Lock()
			e.skipped += sh.logicalRecords()
			sh.mu.Unlock()
			return nil
		}
		return e.walkIndexed(sh, pathDomain, e.q.Domain)
	case pathHost:
		return e.walkIndexed(sh, pathHost, e.q.RequestHost)
	}
	v, err := sh.snapshotScan()
	if err != nil {
		return err
	}
	return e.scanView(&v)
}

// ctxEvery is how many records a query reads between looks at its
// context, so a request past its deadline or without a client stops
// within that many reads.
const ctxEvery = 64

// exec is one query in flight: what was asked, how to deliver it, and
// the tally the counters, metrics and span report. Every record is
// accounted for exactly once — scanned when it was read from disk,
// skipped when index or metadata settled it without a read — so
// scanned+skipped equals the record total of the shards visited.
//
// A match is delivered as the line the pack or tail holds, never
// re-encoded. A record is decoded only when its body has to be looked
// at (see keep), and then only as far as the filter needs.
type exec struct {
	ctx context.Context
	q   capturedb.Query
	fn  func(line []byte) bool // nil: only count the matches
	// settled: the access path and the metadata filters decide q on
	// their own (indexOnly), so a candidate passing MatchMeta matches
	// without its body being looked at — and, when only counting,
	// without being read.
	settled bool

	matched, scanned, skipped int64
	stop                      bool // fn asked for no more rows
	buf                       []byte
}

// meta applies the metadata filters to one candidate and reports
// whether the record still has to be read.
func (e *exec) meta(day int32, failed bool) (read bool) {
	if !e.q.MatchMeta(simtime.Day(day), failed) {
		e.skipped++
		return false
	}
	if e.settled && e.fn == nil {
		e.skipped++
		e.matched++
		return false
	}
	return true
}

// keep reports whether a candidate that passed the metadata filters
// matches. Unless the query is settled, what is left is in the body: a
// vantage, read from the record head, or a request host next to the
// domain the walk followed, which takes the whole record.
func (e *exec) keep(line []byte) (bool, error) {
	if e.settled {
		return true, nil
	}
	if e.q.Domain != "" && e.q.RequestHost != "" {
		c, err := capturedb.Decode(line)
		return err == nil && e.q.Match(c), err
	}
	c, err := capturedb.DecodeHead(line)
	return err == nil && c.Vantage.Name == e.q.Vantage, err
}

// row accounts for one record read from disk and delivers its stored
// line if keep matched it.
func (e *exec) row(line []byte, match bool) error {
	if e.scanned%ctxEvery == 0 {
		if err := e.ctx.Err(); err != nil {
			return err
		}
	}
	e.scanned++
	if !match {
		return nil
	}
	e.matched++
	if e.fn != nil && !e.fn(line) {
		e.stop = true
	}
	return nil
}

func (e *exec) packRow(p *pack.Pack, recs []pack.Rec, ix int) error {
	if !e.meta(recs[ix].Day, recs[ix].Failed) {
		return nil
	}
	line, err := p.ReadRecord(recs, ix, &e.buf)
	if err != nil {
		return err
	}
	match, err := e.keep(line)
	if err != nil {
		return fmt.Errorf("capstore: pack record %d of %s: %w", ix, p.Path, err)
	}
	return e.row(line, match)
}

func (e *exec) tailRow(f *os.File, meta recMeta) error {
	if !e.meta(meta.day, meta.failed) {
		return nil
	}
	line, err := readLine(f, meta, &e.buf)
	if err != nil {
		return err
	}
	match, err := e.keep(line)
	if err != nil {
		return fmt.Errorf("capstore: record at %d: %w", meta.off, err)
	}
	return e.row(line, match)
}

// shardView is one shard's consistent query snapshot: the pack chain,
// the tail records (or just the indexed candidates), and the tail
// file handle they refer to — all captured under a single lock hold so
// a concurrent compaction can never tear the view.
type shardView struct {
	packs         []*pack.Pack
	packedRecords int64
	tailCount     int
	f             *os.File

	// Indexed path: the candidate tail records' metadata.
	tailMetas []recMeta

	// Scan path: every tail record's metadata plus the tail day range.
	allMetas []recMeta
	minDay   simtime.Day
	maxDay   simtime.Day
}

func (v *shardView) total() int64 { return v.packedRecords + int64(v.tailCount) }

// snapshotIndexed captures shard sh's view for an indexed query on
// key (path is pathDomain or pathHost). The tail buffer is flushed so
// ReadAt sees every counted byte.
func (sh *shard) snapshotIndexed(path, key string) (shardView, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.bw.Flush(); err != nil {
		return shardView{}, err
	}
	v := shardView{
		packs:         sh.packs[:len(sh.packs):len(sh.packs)],
		packedRecords: sh.packedRecords,
		tailCount:     len(sh.recs),
		f:             sh.f,
	}
	idxs := sh.byDomain.get(key)
	if path == pathHost {
		idxs = sh.byHost.get(key)
	}
	v.tailMetas = make([]recMeta, len(idxs))
	for k, ix := range idxs {
		v.tailMetas[k] = sh.recs[ix]
	}
	return v, nil
}

// snapshotScan captures shard sh's view for a scan.
func (sh *shard) snapshotScan() (shardView, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.bw.Flush(); err != nil {
		return shardView{}, err
	}
	v := shardView{
		packs:         sh.packs[:len(sh.packs):len(sh.packs)],
		packedRecords: sh.packedRecords,
		tailCount:     len(sh.recs),
		f:             sh.f,
		minDay:        sh.minDay,
		maxDay:        sh.maxDay,
	}
	v.allMetas = make([]recMeta, len(sh.recs))
	copy(v.allMetas, sh.recs)
	return v, nil
}

// walkIndexed answers a domain or host query on one shard: pack posting
// lists, then the tail posting list, reading exactly the candidates
// that pass the metadata filters. Every record that is not a candidate
// is skipped without being looked at.
func (e *exec) walkIndexed(sh *shard, path, key string) error {
	v, err := sh.snapshotIndexed(path, key)
	if err != nil {
		return err
	}
	lists := make([][]int32, len(v.packs))
	candidates := int64(len(v.tailMetas))
	for k, p := range v.packs {
		if path == pathDomain {
			lists[k], err = p.Domain(key)
		} else {
			lists[k], err = p.Host(key)
		}
		if err != nil {
			return err
		}
		candidates += int64(len(lists[k]))
	}
	e.skipped += v.total() - candidates
	for k, p := range v.packs {
		if len(lists[k]) == 0 {
			continue
		}
		recs, err := p.Recs()
		if err != nil {
			return err
		}
		for _, ix := range lists[k] {
			if err := e.packRow(p, recs, int(ix)); err != nil || e.stop {
				return err
			}
		}
	}
	for _, meta := range v.tailMetas {
		if err := e.tailRow(v.f, meta); err != nil || e.stop {
			return err
		}
	}
	return nil
}

// scanView answers a query with no indexed key on one shard, in
// logical order — packs, then tail — skipping whole packs (or the whole
// tail) whose day range cannot intersect the query's bounds.
func (e *exec) scanView(v *shardView) error {
	upper, bounded := e.q.Upper()
	for _, p := range v.packs {
		// Per-pack day-range pruning from the persistent summary.
		if e.q.From > simtime.Day(p.Summary.MaxDay) || (bounded && upper < simtime.Day(p.Summary.MinDay)) {
			e.skipped += p.Summary.Records
			continue
		}
		recs, err := p.Recs()
		if err != nil {
			return err
		}
		for ix := range recs {
			if err := e.packRow(p, recs, ix); err != nil || e.stop {
				return err
			}
		}
	}
	if v.tailCount == 0 {
		return nil
	}
	// Tail day-range pruning. The range may have widened past the
	// snapshot under concurrent ingest, which only makes pruning
	// conservative, never wrong.
	if e.q.From > v.maxDay || (bounded && upper < v.minDay) {
		e.skipped += int64(v.tailCount)
		return nil
	}
	for _, meta := range v.allMetas {
		if err := e.tailRow(v.f, meta); err != nil || e.stop {
			return err
		}
	}
	return nil
}

// readLine fetches one tail record's stored line by offset, reusing
// *buf across calls. The file handle comes from the caller's shard
// view, so a concurrent compaction's tail swap cannot redirect the
// read.
func readLine(f *os.File, meta recMeta, buf *[]byte) ([]byte, error) {
	if cap(*buf) < int(meta.length) {
		*buf = make([]byte, meta.length)
	}
	b := (*buf)[:meta.length]
	if _, err := f.ReadAt(b, meta.off); err != nil {
		return nil, fmt.Errorf("capstore: reading record at %d: %w", meta.off, err)
	}
	return b, nil
}
