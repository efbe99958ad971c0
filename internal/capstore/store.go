// Package capstore is the sharded, indexed capture store behind the
// platform's query API — the production substrate for the "central
// database, which can be queried using a custom API" of Section 3.2.
// Captures are hash-partitioned by final registrable domain into N
// shards in the capturedb wire format. Each shard is a chain of
// immutable pack files (compacted bundles with persistent footer
// indexes — see internal/capstore/pack) plus one active tail segment
// for hot appends. Opening a store loads each pack's fixed-size
// summary and scans only the tail, so open cost tracks tail size, not
// total capture count; domain and CMP-indicator queries resolve
// through pack posting lists and in-memory tail indexes instead of
// full scans. cmd/capd serves the store over HTTP.
package capstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/capstore/pack"
	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// DefaultShards is the segment count used when Create is given 0.
const DefaultShards = 8

// maxShards bounds the segment fan-out; past a few hundred segments
// the per-file overhead outweighs any pruning benefit.
const maxShards = 256

// recMeta is the per-record index entry for a tail record: where the
// record lives in the tail file plus the two fields (day, failed)
// every query filters on, so non-matching records are skipped without
// touching disk.
type recMeta struct {
	off    int64
	length int32
	day    int32
	failed bool
}

// shard is one partition: an ordered chain of immutable packs plus the
// active tail segment with its concurrent-safe appender and in-memory
// tail indexes. The tail's secondary indexes are updated under mu in
// the same critical section as the record append, so a tail
// record-count snapshot is always a fully indexed prefix.
type shard struct {
	mu     sync.Mutex
	f      *os.File
	bw     *bufio.Writer
	end    int64 // tail logical end offset, including buffered bytes
	recs   []recMeta
	minDay simtime.Day // tail day range
	maxDay simtime.Day

	// Tail secondary indexes: key → tail-record indices, ascending.
	byDomain     postings
	byHost       postings
	hostPostings int64

	// The immutable pack chain. packs only ever grows (append on
	// compaction); packedHash is the running logical-stream FNV-64a at
	// the chain's end, which tail hashing resumes from.
	packs         []*pack.Pack
	packedRecords int64
	packedBytes   int64
	packedHash    uint64

	// compacting serializes compaction per shard without holding mu
	// across the pack build.
	compacting bool

	// openIndexed records which open path this shard took: pack
	// summaries + tail scan (true) or full segment scan (false).
	openIndexed bool
}

func (sh *shard) noteDay(d simtime.Day) {
	if len(sh.recs) == 1 || d < sh.minDay {
		sh.minDay = d
	}
	if len(sh.recs) == 1 || d > sh.maxDay {
		sh.maxDay = d
	}
}

// postings is a tail secondary index: key → tail-record indices,
// ascending. The lists are held by pointer so that posting a record
// under a key already present looks the key up without converting it
// to a string.
type postings map[string]*[]int32

func (p postings) add(key []byte, idx int32) {
	if l, ok := p[string(key)]; ok {
		*l = append(*l, idx)
		return
	}
	p[string(key)] = &[]int32{idx}
}

// snapshot copies the index for a compaction of the current tail. Each
// list is capped at its length, so appends after the snapshot never
// write into the copy; the lists' elements change only when the
// compaction itself rebases the index. Callers hold sh.mu.
func (p postings) snapshot() map[string][]int32 {
	m := make(map[string][]int32, len(p))
	for k, l := range p {
		m[k] = (*l)[:len(*l):len(*l)]
	}
	return m
}

func (p postings) get(key string) []int32 {
	if l, ok := p[key]; ok {
		return *l
	}
	return nil
}

// indexTail publishes one tail record's secondary-index entries.
// Callers hold sh.mu.
func (sh *shard) indexTail(k *capturedb.Keys, idx int32) {
	if len(k.Domain) > 0 {
		sh.byDomain.add(k.Domain, idx)
	}
	for _, h := range k.Hosts {
		sh.byHost.add(h, idx)
	}
	sh.hostPostings += int64(len(k.Hosts))
}

// logicalRecords returns the shard's total record count (packs +
// tail). Callers hold sh.mu.
func (sh *shard) logicalRecords() int64 { return sh.packedRecords + int64(len(sh.recs)) }

// Store is a sharded capture store rooted at a directory of pack and
// segment files. It implements capture.Sink (write-through from the
// crawler) and is safe for concurrent ingest, query, and compaction.
type Store struct {
	dir    string
	shards []*shard

	counters counters

	// Optional telemetry, attached via RegisterMetrics / SetTracer.
	// Atomic so attachment can race live queries without a lock on
	// the hot path.
	metrics atomic.Pointer[StoreMetrics]
	tracer  atomic.Pointer[obs.Tracer]

	errMu sync.Mutex
	err   error
}

func segName(i int) string { return fmt.Sprintf("seg-%03d.jsonl", i) }

// packName is pack file seq of shard i; lexical order is chain order.
func packName(i, seq int) string { return fmt.Sprintf("pack-%03d-%06d.pack", i, seq) }

// Create initialises an empty store with the given number of segments
// (0 means DefaultShards) under dir, truncating any existing segments.
func Create(dir string, shards int) (*Store, error) {
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > maxShards {
		return nil, fmt.Errorf("capstore: %d shards exceeds the maximum of %d", shards, maxShards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := newStore(dir, shards)
	for i := range s.shards {
		f, err := os.Create(filepath.Join(dir, segName(i)))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.shards[i].f = f
		s.shards[i].bw = tailWriter(f)
	}
	// Appends are never fsynced (Open repairs a torn tail and idempotent
	// re-delivery refills a lost one), but the segment names must
	// survive a crash or Open would refuse the directory outright.
	if err := durable.SyncDir(dir); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Open loads an existing store. Shards with a pack chain load each
// pack's persistent footer summary (O(packs), no data read) and scan
// only the tail segment; unpacked shards scan their whole segment to
// rebuild the in-memory indexes. Shard opens run on a
// GOMAXPROCS-bounded worker pool; each shard's index is built inside
// its own worker, so the result is deterministic with no cross-shard
// merge. Crash debris is repaired: leftover .tmp files are removed,
// torn segment tails (capturedb.ErrTruncated) are truncated to the
// last complete record, a torn final pack is quarantined aside, and a
// tail still holding an already-packed prefix (crash between pack
// commit and tail rewrite) is rewritten to drop the duplicate.
func Open(dir string) (*Store, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("capstore: %s holds no segment files (not a capture store?)", dir)
	}
	sort.Strings(names)
	s := newStore(dir, len(names))

	// Crash debris: in-flight pack builds and tail rewrites die under
	// a .tmp name; anything still there is garbage.
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return nil, err
	}
	for _, t := range tmps {
		if err := os.Remove(t); err != nil {
			return nil, fmt.Errorf("capstore: removing crash debris %s: %w", t, err)
		}
	}

	errs := make([]error, len(names))
	idx := make(chan int)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(names) {
		workers = len(names)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = s.openShard(i, names[i])
			}
		}()
	}
	for i := range names {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("capstore: %s: %w", names[i], err)
		}
	}
	for _, sh := range s.shards {
		s.counters.records.Add(sh.logicalRecords())
	}
	return s, nil
}

func newStore(dir string, shards int) *Store {
	s := &Store{
		dir:    dir,
		shards: make([]*shard, shards),
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			byDomain:   make(postings),
			byHost:     make(postings),
			packedHash: pack.HashOffset,
		}
	}
	return s
}

// openShard loads shard i: pack chain first (summaries only), then the
// tail segment scan, repairing crash states along the way.
func (s *Store) openShard(i int, segPath string) error {
	sh := s.shards[i]
	if err := s.openPacks(i, sh); err != nil {
		return err
	}
	if err := s.repairTailOverlap(i, sh, segPath); err != nil {
		return err
	}
	return s.openTail(i, sh, segPath)
}

// openPacks loads shard i's pack chain, validating each pack's chain
// position against the running (records, bytes, hash) state. A torn or
// chain-breaking final pack is quarantined aside (renamed .corrupt) —
// the only way one arises is filesystem damage, and the bytes usually
// still live in the tail (see repairTailOverlap); a broken pack in the
// middle of the chain is unrecoverable locally and fails the open.
func (s *Store) openPacks(i int, sh *shard) error {
	paths, err := filepath.Glob(filepath.Join(s.dir, fmt.Sprintf("pack-%03d-*.pack", i)))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for k, path := range paths {
		p, err := pack.Open(path)
		if err == nil {
			baseHash, herr := pack.ParseHash(p.Summary.BaseHash)
			if herr != nil {
				err = herr
			} else if p.Summary.BaseRecords != sh.packedRecords ||
				p.Summary.BaseBytes != sh.packedBytes || baseHash != sh.packedHash {
				err = fmt.Errorf("%w: %s: chain position (%d records, %d bytes, %s) does not extend (%d, %d, %s)",
					pack.ErrBadPack, path, p.Summary.BaseRecords, p.Summary.BaseBytes, p.Summary.BaseHash,
					sh.packedRecords, sh.packedBytes, pack.HashHex(sh.packedHash))
			}
		}
		if err != nil {
			if !errors.Is(err, pack.ErrBadPack) || k != len(paths)-1 {
				return err
			}
			if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
				return fmt.Errorf("quarantining torn pack: %w", rerr)
			}
			s.counters.tornPacks.Add(1)
			break
		}
		endHash, err := pack.ParseHash(p.Summary.Hash)
		if err != nil {
			return err
		}
		sh.packs = append(sh.packs, p)
		sh.packedRecords += p.Summary.Records
		sh.packedBytes += p.Summary.DataBytes
		sh.packedHash = endHash
	}
	sh.openIndexed = len(sh.packs) > 0
	return nil
}

// repairTailOverlap completes a compaction interrupted between pack
// commit and tail rewrite: if the tail still starts with the last
// pack's exact bytes (verified by resuming the FNV chain from the
// pack's base hash), the duplicated prefix is dropped by rewriting the
// tail through a temp file and atomic rename.
func (s *Store) repairTailOverlap(i int, sh *shard, segPath string) error {
	if len(sh.packs) == 0 {
		return nil
	}
	lp := sh.packs[len(sh.packs)-1]
	fi, err := os.Stat(segPath)
	if err != nil {
		return err
	}
	if fi.Size() < lp.Summary.DataBytes {
		return nil
	}
	f, err := os.Open(segPath)
	if err != nil {
		return err
	}
	baseHash, err := pack.ParseHash(lp.Summary.BaseHash)
	if err != nil {
		f.Close()
		return err
	}
	h, err := pack.HashReader(baseHash, io.NewSectionReader(f, 0, lp.Summary.DataBytes))
	if err != nil {
		f.Close()
		return err
	}
	if pack.HashHex(h) != lp.Summary.Hash {
		return f.Close() // tail does not duplicate the pack: normal state
	}
	if err := durable.WriteFile(segPath, copyRange(f, lp.Summary.DataBytes, fi.Size())); err != nil {
		f.Close()
		return fmt.Errorf("dropping packed tail prefix: %w", err)
	}
	f.Close()
	s.counters.overlapRepairs.Add(1)
	return nil
}

// copyRange is a durable.WriteFile body producing bytes [from, to) of
// src — a tail segment minus the prefix a pack now holds.
func copyRange(src io.ReaderAt, from, to int64) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.Copy(w, io.NewSectionReader(src, from, to-from))
		return err
	}
}

// openTail scans shard i's tail segment, fills the record metadata and
// tail indexes from each line's keys, and repairs a torn tail.
func (s *Store) openTail(i int, sh *shard, segPath string) error {
	f, err := os.OpenFile(segPath, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	sh.f = f
	rr := capturedb.NewRecordReader(f)
	var k capturedb.Keys
	for {
		start := rr.Offset()
		line, err := rr.NextLine()
		if err == io.EOF {
			break
		}
		if errors.Is(err, capturedb.ErrTruncated) {
			s.counters.truncated.Add(1)
			if err := f.Truncate(rr.Valid()); err != nil {
				return fmt.Errorf("repairing torn tail: %w", err)
			}
			break
		}
		if err != nil {
			return err
		}
		if _, err := capturedb.Canonical(line, &k); err != nil {
			return fmt.Errorf("capturedb: line %d: %w", rr.Line(), err)
		}
		sh.recs = append(sh.recs, recMeta{
			off:    start,
			length: int32(rr.Valid() - start),
			day:    int32(k.Day),
			failed: k.Failed,
		})
		sh.noteDay(k.Day)
		sh.indexTail(&k, int32(len(sh.recs)-1))
	}
	sh.end = rr.Valid()
	if _, err := f.Seek(sh.end, io.SeekStart); err != nil {
		return err
	}
	sh.bw = tailWriter(f)
	return nil
}

// ShardOf returns the segment index domain hashes to (FNV-1a) in a
// store of n segments — exported so the replicated ingest proxy
// partitions batches exactly as every storage node's store will.
func ShardOf[D string | []byte](domain D, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(domain); i++ {
		h ^= uint32(domain[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// Record implements capture.Sink: c is encoded once and appended. The
// first error is retained and returned by Close.
func (s *Store) Record(c *capture.Capture) {
	var k capturedb.Keys
	line, err := capturedb.EncodeKeys(c, &k)
	if err != nil {
		s.fail(err)
		return
	}
	s.append(line, &k)
}

// append writes line, whose keys are k, into its domain's tail segment
// and indexes it, all under one shard lock so a record is visible to
// queries only once fully indexed. It is the one way a record enters
// the store.
func (s *Store) append(line []byte, k *capturedb.Keys) {
	sh := s.shards[ShardOf(k.Domain, len(s.shards))]
	sh.mu.Lock()
	if _, err := sh.bw.Write(line); err != nil {
		sh.mu.Unlock()
		s.fail(err)
		return
	}
	sh.recs = append(sh.recs, recMeta{
		off:    sh.end,
		length: int32(len(line)),
		day:    int32(k.Day),
		failed: k.Failed,
	})
	sh.end += int64(len(line))
	sh.noteDay(k.Day)
	sh.indexTail(k, int32(len(sh.recs)-1))
	sh.mu.Unlock()
	s.counters.records.Add(1)
}

func (s *Store) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
}

// Len returns the number of records in the store.
func (s *Store) Len() int64 { return s.counters.records.Load() }

// NumShards returns the segment count.
func (s *Store) NumShards() int { return len(s.shards) }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Flush forces buffered appends to disk on every shard.
func (s *Store) Flush() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.bw != nil {
			if err := sh.bw.Flush(); err != nil && first == nil {
				first = err
			}
		}
		sh.mu.Unlock()
	}
	if first != nil {
		s.fail(first)
	}
	return first
}

// tailWriters holds the append buffers of closed stores' shards.
var tailWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 1<<16) }}

// tailWriter returns a 64 KiB append buffer over a shard's tail file.
func tailWriter(f *os.File) *bufio.Writer {
	bw := tailWriters.Get().(*bufio.Writer)
	bw.Reset(f)
	return bw
}

// closedTail is what a closed shard appends to: its buffer went back to
// tailWriters, and a late append or flush fails as on a closed file.
type closedTail struct{}

func (closedTail) Write([]byte) (int, error) { return 0, os.ErrClosed }

// Close flushes and closes every segment and pack, returning the first
// error encountered over the store's lifetime.
func (s *Store) Close() error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.bw != nil {
			if err := sh.bw.Flush(); err != nil {
				s.fail(err)
			}
		}
		if sh.f != nil {
			if err := sh.f.Close(); err != nil {
				s.fail(err)
			}
			sh.f = nil
			if sh.bw != nil {
				sh.bw.Reset(nil)
				tailWriters.Put(sh.bw)
				sh.bw = bufio.NewWriterSize(closedTail{}, 16)
			}
		}
		for _, p := range sh.packs {
			if err := p.Close(); err != nil {
				s.fail(err)
			}
		}
		sh.packs = nil
		sh.mu.Unlock()
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}
