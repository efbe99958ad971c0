package capstore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/capstore/pack"
	"repro/internal/durable"
	"repro/internal/simtime"
)

// Compaction folds a shard's tail segment into an immutable pack and
// rewrites the tail to hold only the records appended since. The pack
// is the tail prefix's exact wire bytes, so the shard's logical record
// stream — concat(packs…, tail) — is unchanged byte for byte, and
// manifests, prefix hashes, and replica repair are oblivious to when
// (or whether) compaction ran.
//
// Crash safety is sequencing: the pack commits (write-temp → fsync →
// rename → dir fsync) strictly before the tail rewrite. A crash
// before commit leaves only a .tmp (removed at open); a crash between
// commit and rewrite leaves the packed prefix duplicated in the tail,
// which Open detects by resuming the FNV chain and repairs by
// completing the rewrite.

// CompactConfig tunes the background compactor.
type CompactConfig struct {
	// MinTailBytes triggers compaction once a shard's tail reaches
	// this size. 0 means DefaultMinTailBytes; set negative to disable
	// the size trigger.
	MinTailBytes int64
	// MaxTailAge triggers compaction once a shard's oldest
	// uncompacted record has been observed for this long, regardless
	// of size. 0 disables the age trigger.
	MaxTailAge time.Duration
	// Interval is each shard's trigger-poll cadence (default 1s). The
	// shards are polled in turn, one every Interval/shards, so the
	// packing work is spread across the interval instead of landing on
	// every shard at once.
	Interval time.Duration
	// PaceBytesPerSec bounds the compactor's read+write rate so
	// packing a large tail cannot starve live ingest and queries of
	// disk bandwidth. 0 means unpaced.
	PaceBytesPerSec int64

	// Now and Sleep are injectable for tests (default time.Now /
	// time.Sleep).
	Now   func() time.Time
	Sleep func(time.Duration)
}

// DefaultMinTailBytes is the size trigger used when CompactConfig
// leaves MinTailBytes zero.
const DefaultMinTailBytes = 4 << 20

func (c *CompactConfig) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c *CompactConfig) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// pacer is a token-bucket byte throttle; sleep debt accumulates and is
// paid in ≥10ms chunks so pacing does not degenerate into micro-sleeps.
type pacer struct {
	bytesPerSec int64
	debt        time.Duration
	slept       func(time.Duration)
	sleep       func(time.Duration)
}

func (p *pacer) throttle(n int) {
	if p == nil || p.bytesPerSec <= 0 {
		return
	}
	p.debt += time.Duration(int64(n) * int64(time.Second) / p.bytesPerSec)
	if p.debt >= 10*time.Millisecond {
		d := p.debt
		p.debt = 0
		p.sleep(d)
		if p.slept != nil {
			p.slept(d)
		}
	}
}

// Compactor runs size/age-triggered compaction in the background.
type Compactor struct {
	s    *Store
	cfg  CompactConfig
	stop chan struct{}
	wg   sync.WaitGroup

	// firstSeen tracks, per shard, when the poll loop first observed a
	// non-empty tail — the age trigger's reference point.
	firstSeen []time.Time
}

// StartCompactor launches the background compactor. Close stops it.
func (s *Store) StartCompactor(cfg CompactConfig) *Compactor {
	if cfg.MinTailBytes == 0 {
		cfg.MinTailBytes = DefaultMinTailBytes
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	c := &Compactor{
		s:         s,
		cfg:       cfg,
		stop:      make(chan struct{}),
		firstSeen: make([]time.Time, len(s.shards)),
	}
	c.wg.Add(1)
	go c.run()
	return c
}

// Close stops the compactor and waits for an in-flight pass to finish.
func (c *Compactor) Close() {
	close(c.stop)
	c.wg.Wait()
}

// run polls one shard per tick, round robin, so each shard is polled
// once per Interval. Polling every shard on one tick would pack all
// tails in one burst, and a store's ingest and query latency would
// then depend on whether that burst lands inside a given stretch of
// traffic or just after it.
func (c *Compactor) run() {
	defer c.wg.Done()
	step := c.cfg.Interval / time.Duration(len(c.s.shards))
	if step <= 0 {
		step = 1
	}
	tick := time.NewTicker(step)
	defer tick.Stop()
	for i := 0; ; i = (i + 1) % len(c.s.shards) {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.poll(i)
		}
	}
}

// poll compacts shard i if its tail trips a trigger.
func (c *Compactor) poll(i int) {
	sh := c.s.shards[i]
	sh.mu.Lock()
	n, bytes := len(sh.recs), sh.end
	sh.mu.Unlock()
	if n == 0 {
		c.firstSeen[i] = time.Time{}
		return
	}
	now := c.cfg.now()
	if c.firstSeen[i].IsZero() {
		c.firstSeen[i] = now
	}
	sized := c.cfg.MinTailBytes > 0 && bytes >= c.cfg.MinTailBytes
	aged := c.cfg.MaxTailAge > 0 && now.Sub(c.firstSeen[i]) >= c.cfg.MaxTailAge
	if !sized && !aged {
		return
	}
	if _, err := c.s.compactShard(i, &c.cfg); err != nil {
		c.s.fail(fmt.Errorf("capstore: compacting shard %d: %w", i, err))
		return
	}
	c.firstSeen[i] = time.Time{}
}

// CompactAll synchronously compacts every shard's current tail (the
// /compact admin trigger). Returns the number of records packed.
func (s *Store) CompactAll() (int64, error) {
	var total int64
	for i := range s.shards {
		n, err := s.compactShard(i, nil)
		if err != nil {
			return total, fmt.Errorf("capstore: compacting shard %d: %w", i, err)
		}
		total += n
	}
	return total, nil
}

// CompactShard synchronously folds shard i's current tail into a pack.
func (s *Store) CompactShard(i int) (int64, error) {
	if i < 0 || i >= len(s.shards) {
		return 0, fmt.Errorf("capstore: no shard %d", i)
	}
	return s.compactShard(i, nil)
}

// compactReaders holds the read buffers of finished compactions.
var compactReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// compactShard is the compaction kernel. The shard lock is held only
// to snapshot the tail prefix with its index and, at the end, to
// publish the pack and swap in the rewritten tail; the pack build
// itself reads the immutable snapshot with no lock held, so ingest and
// queries proceed concurrently.
func (s *Store) compactShard(i int, cfg *CompactConfig) (int64, error) {
	sh := s.shards[i]

	sh.mu.Lock()
	if sh.compacting {
		sh.mu.Unlock()
		return 0, nil
	}
	n := len(sh.recs)
	if n == 0 {
		sh.mu.Unlock()
		return 0, nil
	}
	if err := sh.bw.Flush(); err != nil {
		sh.mu.Unlock()
		return 0, err
	}
	sh.compacting = true
	last := sh.recs[n-1]
	cut := last.off + int64(last.length)
	metas := make([]recMeta, n)
	copy(metas, sh.recs[:n])
	domains, hosts := sh.byDomain.snapshot(), sh.byHost.snapshot()
	base := pack.Base{Records: sh.packedRecords, Bytes: sh.packedBytes, Hash: sh.packedHash}
	seq := len(sh.packs)
	tail := sh.f
	sh.mu.Unlock()

	done := func(err error) (int64, error) {
		sh.mu.Lock()
		sh.compacting = false
		sh.mu.Unlock()
		return 0, err
	}

	var pc *pacer
	if cfg != nil && cfg.PaceBytesPerSec > 0 {
		pc = &pacer{
			bytesPerSec: cfg.PaceBytesPerSec,
			sleep:       cfg.sleep,
			slept:       func(d time.Duration) { s.counters.paceSleepNanos.Add(int64(d)) },
		}
	}

	// Build the pack from the snapshot: the one full read compaction
	// ever does, a sequential copy of the packed prefix. The posting
	// lists are the tail index's, taken with the snapshot, so no record
	// is scanned for its keys again.
	b, err := pack.NewBuilder(filepath.Join(s.dir, packName(i, seq)), base)
	if err != nil {
		return done(err)
	}
	r := compactReaders.Get().(*bufio.Reader)
	r.Reset(io.NewSectionReader(tail, metas[0].off, cut-metas[0].off))
	defer func() {
		r.Reset(nil)
		compactReaders.Put(r)
	}()
	next := metas[0].off
	var buf []byte
	for _, meta := range metas {
		if meta.off != next {
			b.Abort()
			return done(fmt.Errorf("tail record at %d does not follow the one ending at %d", meta.off, next))
		}
		next += int64(meta.length)
		if cap(buf) < int(meta.length) {
			buf = make([]byte, meta.length)
		}
		line := buf[:meta.length]
		if _, err := io.ReadFull(r, line); err != nil {
			b.Abort()
			return done(fmt.Errorf("reading tail record at %d: %w", meta.off, err))
		}
		if err := b.Add(line, pack.RecordMeta{Day: meta.day, Failed: meta.failed}); err != nil {
			b.Abort()
			return done(err)
		}
		pc.throttle(int(meta.length))
	}
	b.SetPostings(domains, hosts)
	p, err := b.Commit()
	if err != nil {
		return done(err)
	}

	// Publish: rewrite the tail without the packed prefix, swap the
	// shard onto the new file, and rebase the tail indexes. Records
	// appended since the snapshot are preserved by the rewrite copy.
	sh.mu.Lock()
	defer func() {
		sh.compacting = false
		sh.mu.Unlock()
	}()
	if err := sh.bw.Flush(); err != nil {
		return 0, err
	}
	segPath := filepath.Join(s.dir, segName(i))
	if err := durable.WriteFile(segPath, copyRange(sh.f, cut, sh.end)); err != nil {
		return 0, fmt.Errorf("rewriting tail: %w", err)
	}
	nf, err := os.OpenFile(segPath, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	newEnd := sh.end - cut
	if _, err := nf.Seek(newEnd, io.SeekStart); err != nil {
		nf.Close()
		return 0, err
	}
	// The previous tail file handle is deliberately not closed here:
	// in-flight queries may still be reading from it through their
	// snapshot. It is garbage-collected once the last reader drops it.
	sh.f = nf
	sh.bw.Reset(nf) // flushed above
	sh.end = newEnd

	remaining := sh.recs[n:]
	sh.recs = make([]recMeta, len(remaining))
	for k, m := range remaining {
		m.off -= cut
		sh.recs[k] = m
	}
	sh.rebaseTailIndexes(int32(n))
	sh.recomputeTailDays()

	sh.packs = append(sh.packs, p)
	sh.packedRecords += p.Summary.Records
	sh.packedBytes += p.Summary.DataBytes
	endHash, err := pack.ParseHash(p.Summary.Hash)
	if err != nil {
		return 0, err
	}
	sh.packedHash = endHash

	s.counters.compactions.Add(1)
	s.counters.packedRecords.Add(p.Summary.Records)
	s.counters.packedBytes.Add(p.Summary.DataBytes)
	return p.Summary.Records, nil
}

// rebaseTailIndexes drops index entries for the first n (now packed)
// tail records and shifts the survivors down by n. Cost is one walk of
// the old tail's postings — O(packed + remaining), independent of
// store size. Callers hold sh.mu.
func (sh *shard) rebaseTailIndexes(n int32) {
	rebase := func(m postings) {
		for k, l := range m {
			kept := (*l)[:0]
			for _, ix := range *l {
				if ix >= n {
					kept = append(kept, ix-n)
				}
			}
			if len(kept) == 0 {
				delete(m, k)
			} else {
				*l = kept
			}
		}
	}
	rebase(sh.byDomain)
	rebase(sh.byHost)
	var posts int64
	for _, l := range sh.byHost {
		posts += int64(len(*l))
	}
	sh.hostPostings = posts
}

// recomputeTailDays rebuilds the tail day range after a rebase.
// Callers hold sh.mu.
func (sh *shard) recomputeTailDays() {
	sh.minDay, sh.maxDay = 0, 0
	for k, m := range sh.recs {
		d := simtime.Day(m.day)
		if k == 0 || d < sh.minDay {
			sh.minDay = d
		}
		if k == 0 || d > sh.maxDay {
			sh.maxDay = d
		}
	}
}
