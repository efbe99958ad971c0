// Package pack is the capture store's compaction format: many small
// wire-format records folded into one immutable bundle with a
// persistent footer index, so opening a store loads a fixed-size
// summary per pack instead of re-scanning every record, and
// domain/host/day queries seek straight into the pack's data section.
//
// A pack file is laid out as
//
//	[data]     the records' exact wire bytes, concatenated in order
//	[rectab]   fixed-width binary per-record entries (offset, running
//	           FNV-64a prefix hash, day, failed flag)
//	[domains]  JSON posting lists: final domain → pack-local indices
//	[hosts]    JSON posting lists: request host → pack-local indices
//	[summary]  one JSON object locating the sections, carrying the
//	           pack's chain position (logical records/bytes/hash before
//	           and after it) and its day range
//	[trailer]  fixed-size ASCII: magic, summary offset/length, summary
//	           checksum
//
// Because the data section is the records' exact bytes in canonical
// order, concat(pack₀.data, pack₁.data, …, tail) is byte-identical to
// the never-compacted segment file — the logical record stream — and
// the per-record running FNV-64a hashes let a prefix manifest at any
// record count be answered from the index without re-reading packed
// data. Packs are written to a temp name, fsynced, and renamed into
// place, so a crash never leaves a live pack half-written.
package pack

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/durable"
)

// FNV-64a, resumable: the running state is just the current uint64, so
// a prefix hash can be stored per record and continued into the tail.
const (
	// HashOffset is the FNV-64a offset basis — the hash of zero bytes,
	// and the chain seed of every shard's logical stream.
	HashOffset uint64 = 0xcbf29ce484222325
	fnvPrime   uint64 = 0x100000001b3
)

// HashUpdate folds p into a running FNV-64a state.
func HashUpdate(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// HashReader folds everything read from r into h.
func HashReader(h uint64, r io.Reader) (uint64, error) {
	buf := make([]byte, 64<<10)
	for {
		n, err := r.Read(buf)
		h = HashUpdate(h, buf[:n])
		if err == io.EOF {
			return h, nil
		}
		if err != nil {
			return h, err
		}
	}
}

// HashHex renders a running hash the way manifests do.
func HashHex(h uint64) string { return fmt.Sprintf("%016x", h) }

// ParseHash is HashHex's inverse.
func ParseHash(s string) (uint64, error) {
	var h uint64
	if _, err := fmt.Sscanf(s, "%016x", &h); err != nil {
		return 0, fmt.Errorf("pack: bad hash %q: %w", s, err)
	}
	return h, nil
}

const (
	magic = "CAPPACK1"
	// trailer: magic(8) + summaryOff hex(16) + summaryLen hex(16) +
	// summary FNV-64a hex(16) + '\n'.
	trailerLen = 8 + 16 + 16 + 16 + 1
	// rectab entry: off(8) + hash(8) + day(4) + failed(1) + pad(3).
	recEntryLen = 24
)

// ErrBadPack marks a pack whose trailer or summary fails validation —
// a torn or foreign file, never a partially-applied compaction (those
// die under a temp name).
var ErrBadPack = errors.New("pack: invalid pack file")

// Base is a pack's chain position: the logical stream state just
// before its first record.
type Base struct {
	Records int64
	Bytes   int64
	Hash    uint64
}

// ZeroBase is the chain position at the start of an empty stream. Note
// the hash seed is the FNV offset basis, not zero.
var ZeroBase = Base{Hash: HashOffset}

// Summary is the pack's persistent footer index header — everything
// Open needs without touching the data or index sections.
type Summary struct {
	Version     int    `json:"version"`
	BaseRecords int64  `json:"base_records"`
	BaseBytes   int64  `json:"base_bytes"`
	BaseHash    string `json:"base_hash"`
	Records     int64  `json:"records"`
	DataBytes   int64  `json:"data_bytes"`
	// Hash is the running logical-stream FNV-64a after this pack's
	// last record — the boundary hash prefix manifests resume from.
	Hash         string   `json:"hash"`
	MinDay       int32    `json:"min_day"`
	MaxDay       int32    `json:"max_day"`
	RecTab       [2]int64 `json:"rectab"`  // offset, length
	Domains      [2]int64 `json:"domains"` // offset, length
	Hosts        [2]int64 `json:"hosts"`   // offset, length
	DomainKeys   int      `json:"domain_keys"`
	HostKeys     int      `json:"host_keys"`
	HostPostings int64    `json:"host_postings"`
}

// Rec is one decoded rectab entry. Hash is the running logical-stream
// FNV-64a after this record; Off is data-section-relative. A record's
// length is the next entry's Off (or DataBytes) minus its own.
type Rec struct {
	Off    int64
	Hash   uint64
	Day    int32
	Failed bool
}

// RecordMeta is what the builder needs to index one record.
type RecordMeta struct {
	Day    int32
	Failed bool
	Domain string
	Hosts  []string // distinct request hosts, first-seen order
}

// Builder accumulates records into <path>.tmp and atomically publishes
// the finished pack on Commit. Not safe for concurrent use.
type Builder struct {
	path    string
	tmp     *durable.File
	w       *bufio.Writer // buffers tmp, so an Add is not a write call
	base    Base
	hash    uint64
	off     int64
	recs    []Rec
	domains map[string][]int32
	hosts   map[string][]int32
	posts   int64
	minDay  int32
	maxDay  int32
	err     error
}

// NewBuilder starts a pack at path (written as path+".tmp" until
// Commit) whose first record continues the logical stream at base.
func NewBuilder(path string, base Base) (*Builder, error) {
	tmp, err := durable.Create(path)
	if err != nil {
		return nil, err
	}
	return &Builder{
		path:    path,
		tmp:     tmp,
		w:       bufio.NewWriterSize(tmp, 64<<10),
		base:    base,
		hash:    base.Hash,
		domains: make(map[string][]int32),
		hosts:   make(map[string][]int32),
	}, nil
}

// Add appends one record's exact wire bytes (including the trailing
// newline) and its index entry.
func (b *Builder) Add(line []byte, meta RecordMeta) error {
	if b.err != nil {
		return b.err
	}
	if _, err := b.w.Write(line); err != nil {
		b.err = err
		return err
	}
	b.hash = HashUpdate(b.hash, line)
	idx := int32(len(b.recs))
	b.recs = append(b.recs, Rec{Off: b.off, Hash: b.hash, Day: meta.Day, Failed: meta.Failed})
	b.off += int64(len(line))
	if idx == 0 || meta.Day < b.minDay {
		b.minDay = meta.Day
	}
	if idx == 0 || meta.Day > b.maxDay {
		b.maxDay = meta.Day
	}
	if meta.Domain != "" {
		b.domains[meta.Domain] = append(b.domains[meta.Domain], idx)
	}
	for _, h := range meta.Hosts {
		if h == "" {
			continue
		}
		b.hosts[h] = append(b.hosts[h], idx)
		b.posts++
	}
	return nil
}

// SetPostings replaces the domain and host posting lists that Add
// builds from each record's meta with lists the caller already holds,
// as the compactor does from its shard's tail index. Each list holds
// indices of added records in ascending order; Commit checks them. Add
// must no longer be given a Domain or Hosts.
func (b *Builder) SetPostings(domains, hosts map[string][]int32) {
	b.domains, b.hosts, b.posts = domains, hosts, 0
	for _, l := range hosts {
		b.posts += int64(len(l))
	}
}

// Abort discards the temp file.
func (b *Builder) Abort() { b.tmp.Abort() }

// checkPostings reports a posting list that is not ascending or names
// a record the pack does not hold.
func checkPostings(m map[string][]int32, n int) error {
	for k, l := range m {
		for j, ix := range l {
			if ix < 0 || int(ix) >= n || (j > 0 && ix <= l[j-1]) {
				return fmt.Errorf("pack: posting list %q: index %d out of order or past %d records", k, ix, n)
			}
		}
	}
	return nil
}

// Commit writes the footer index, fsyncs, renames the pack into place,
// fsyncs the directory, and returns the opened pack. An empty builder
// is an error: empty packs carry no information and complicate chain
// validation.
func (b *Builder) Commit() (*Pack, error) {
	defer b.Abort() // a no-op once the file is committed
	if b.err != nil {
		return nil, b.err
	}
	if len(b.recs) == 0 {
		return nil, errors.New("pack: refusing to commit an empty pack")
	}
	if err := checkPostings(b.domains, len(b.recs)); err != nil {
		return nil, err
	}
	if err := checkPostings(b.hosts, len(b.recs)); err != nil {
		return nil, err
	}
	sum := Summary{
		Version:      1,
		BaseRecords:  b.base.Records,
		BaseBytes:    b.base.Bytes,
		BaseHash:     HashHex(b.base.Hash),
		Records:      int64(len(b.recs)),
		DataBytes:    b.off,
		Hash:         HashHex(b.hash),
		MinDay:       b.minDay,
		MaxDay:       b.maxDay,
		DomainKeys:   len(b.domains),
		HostKeys:     len(b.hosts),
		HostPostings: b.posts,
	}

	rectab := make([]byte, len(b.recs)*recEntryLen)
	for i, r := range b.recs {
		e := rectab[i*recEntryLen:]
		binary.BigEndian.PutUint64(e[0:], uint64(r.Off))
		binary.BigEndian.PutUint64(e[8:], r.Hash)
		binary.BigEndian.PutUint32(e[16:], uint32(r.Day))
		if r.Failed {
			e[20] = 1
		}
	}
	sum.RecTab = [2]int64{b.off, int64(len(rectab))}
	if _, err := b.w.Write(rectab); err != nil {
		return nil, err
	}
	pos := sum.RecTab[0] + sum.RecTab[1]

	domJSON, err := json.Marshal(b.domains)
	if err != nil {
		return nil, err
	}
	sum.Domains = [2]int64{pos, int64(len(domJSON))}
	if _, err := b.w.Write(domJSON); err != nil {
		return nil, err
	}
	pos += int64(len(domJSON))

	hostJSON, err := json.Marshal(b.hosts)
	if err != nil {
		return nil, err
	}
	sum.Hosts = [2]int64{pos, int64(len(hostJSON))}
	if _, err := b.w.Write(hostJSON); err != nil {
		return nil, err
	}
	pos += int64(len(hostJSON))

	sumJSON, err := json.Marshal(sum)
	if err != nil {
		return nil, err
	}
	trailer := fmt.Sprintf("%s%016x%016x%016x\n",
		magic, pos, len(sumJSON), HashUpdate(HashOffset, sumJSON))
	if _, err := b.w.Write(sumJSON); err != nil {
		return nil, err
	}
	if _, err := b.w.Write([]byte(trailer)); err != nil {
		return nil, err
	}
	if err := b.w.Flush(); err != nil {
		return nil, err
	}
	if err := b.tmp.Commit(); err != nil {
		return nil, err
	}
	return Open(b.path)
}

// Pack is an opened, immutable pack. Open reads only the trailer and
// summary; the rectab and posting lists lazy-load on first use and
// stay cached, so an idle pack costs one Summary of memory.
type Pack struct {
	Path    string
	Summary Summary
	f       *os.File

	recsOnce sync.Once
	recs     []Rec
	recsErr  error

	domOnce sync.Once
	domains map[string][]int32
	domErr  error

	hostOnce sync.Once
	hosts    map[string][]int32
	hostErr  error
}

// Open validates path's trailer and summary and returns the pack.
// Torn or foreign files return an error wrapping ErrBadPack.
func Open(path string) (*Pack, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	p, err := openFile(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

func openFile(f *os.File, path string) (*Pack, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < trailerLen {
		return nil, fmt.Errorf("%w: %s: %d bytes is shorter than a trailer", ErrBadPack, path, size)
	}
	tr := make([]byte, trailerLen)
	if _, err := f.ReadAt(tr, size-trailerLen); err != nil {
		return nil, err
	}
	if string(tr[:8]) != magic || tr[trailerLen-1] != '\n' {
		return nil, fmt.Errorf("%w: %s: bad trailer magic", ErrBadPack, path)
	}
	var sumOff, sumLen, sumHash uint64
	if _, err := fmt.Sscanf(string(tr[8:trailerLen-1]), "%016x%016x%016x", &sumOff, &sumLen, &sumHash); err != nil {
		return nil, fmt.Errorf("%w: %s: unparseable trailer: %v", ErrBadPack, path, err)
	}
	if int64(sumOff)+int64(sumLen) != size-trailerLen {
		return nil, fmt.Errorf("%w: %s: summary bounds [%d,+%d) disagree with file size %d", ErrBadPack, path, sumOff, sumLen, size)
	}
	sumJSON := make([]byte, sumLen)
	if _, err := f.ReadAt(sumJSON, int64(sumOff)); err != nil {
		return nil, err
	}
	if HashUpdate(HashOffset, sumJSON) != sumHash {
		return nil, fmt.Errorf("%w: %s: summary checksum mismatch", ErrBadPack, path)
	}
	var sum Summary
	if err := json.Unmarshal(sumJSON, &sum); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBadPack, path, err)
	}
	if sum.Version != 1 || sum.Records <= 0 || sum.DataBytes <= 0 ||
		sum.RecTab[0] != sum.DataBytes || sum.RecTab[1] != sum.Records*recEntryLen ||
		sum.Hosts[0]+sum.Hosts[1] != int64(sumOff) {
		return nil, fmt.Errorf("%w: %s: inconsistent summary", ErrBadPack, path)
	}
	return &Pack{Path: path, Summary: sum, f: f}, nil
}

// Close releases the pack's file handle.
func (p *Pack) Close() error { return p.f.Close() }

// Recs returns the pack's record table, loading and caching it on
// first use.
func (p *Pack) Recs() ([]Rec, error) {
	p.recsOnce.Do(func() {
		raw := make([]byte, p.Summary.RecTab[1])
		if _, err := p.f.ReadAt(raw, p.Summary.RecTab[0]); err != nil {
			p.recsErr = err
			return
		}
		recs := make([]Rec, p.Summary.Records)
		for i := range recs {
			e := raw[i*recEntryLen:]
			recs[i] = Rec{
				Off:    int64(binary.BigEndian.Uint64(e[0:])),
				Hash:   binary.BigEndian.Uint64(e[8:]),
				Day:    int32(binary.BigEndian.Uint32(e[16:])),
				Failed: e[20] == 1,
			}
		}
		p.recs = recs
	})
	return p.recs, p.recsErr
}

// RecLen returns record i's byte length given the loaded rectab.
func (p *Pack) RecLen(recs []Rec, i int) int64 {
	if i == len(recs)-1 {
		return p.Summary.DataBytes - recs[i].Off
	}
	return recs[i+1].Off - recs[i].Off
}

// ReadRecord reads record i's wire bytes into *buf (grown as needed).
func (p *Pack) ReadRecord(recs []Rec, i int, buf *[]byte) ([]byte, error) {
	n := p.RecLen(recs, i)
	if int64(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := p.f.ReadAt(b, recs[i].Off); err != nil {
		return nil, fmt.Errorf("pack: %s: reading record %d: %w", p.Path, i, err)
	}
	return b, nil
}

func (p *Pack) loadPostings(section [2]int64, dst *map[string][]int32) error {
	raw := make([]byte, section[1])
	if _, err := p.f.ReadAt(raw, section[0]); err != nil {
		return err
	}
	return json.Unmarshal(raw, dst)
}

// Domain returns the pack-local indices of records whose final domain
// is d, in record order. The posting map loads lazily and stays
// cached.
func (p *Pack) Domain(d string) ([]int32, error) {
	p.domOnce.Do(func() { p.domErr = p.loadPostings(p.Summary.Domains, &p.domains) })
	return p.domains[d], p.domErr
}

// Host returns the pack-local indices of records with a request to
// host h, in record order.
func (p *Pack) Host(h string) ([]int32, error) {
	p.hostOnce.Do(func() { p.hostErr = p.loadPostings(p.Summary.Hosts, &p.hosts) })
	return p.hosts[h], p.hostErr
}

// DataReader returns a reader over data-section bytes [from, to).
func (p *Pack) DataReader(from, to int64) io.Reader {
	return io.NewSectionReader(p.f, from, to-from)
}

// PrefixHash returns the logical-stream hash and byte length after the
// pack's first n records (n in [1, Records]); n == Records answers
// from the summary without touching the rectab.
func (p *Pack) PrefixHash(n int64) (hash uint64, bytes int64, err error) {
	if n <= 0 || n > p.Summary.Records {
		return 0, 0, fmt.Errorf("pack: %s: prefix of %d outside [1,%d]", p.Path, n, p.Summary.Records)
	}
	if n == p.Summary.Records {
		h, err := ParseHash(p.Summary.Hash)
		if err != nil {
			return 0, 0, err
		}
		return h, p.Summary.DataBytes, nil
	}
	recs, err := p.Recs()
	if err != nil {
		return 0, 0, err
	}
	return recs[n-1].Hash, recs[n].Off, nil
}
