package capstore

import (
	"fmt"
	"io"

	"repro/internal/capstore/pack"
)

// The manifest API is the replicated store's diff surface: a replica
// answers "what do you hold?" as per-segment (record count, byte
// length, content hash) triples. Because every replica appends the
// same records in the same canonical commit order, a lagging replica's
// segment is always a byte prefix of a caught-up one — so repair never
// needs record-level diffs: verify the prefix hash, then re-stream the
// missing suffix (StreamShard) into the lagging node's /ingest.
//
// All of it is defined over the *logical record stream* — per shard,
// concat(pack₀.data, pack₁.data, …, tail) — which is byte-identical to
// the never-compacted segment file. Manifests, prefix hashes, and
// repair streams are therefore invariant under compaction: a packed
// store and an unpacked store holding the same records produce the
// same hashes and diff as Equal. Hashing never re-reads packed bytes:
// each pack's footer carries per-record running FNV-64a states, so a
// prefix inside a pack is answered from the index and only tail bytes
// are ever hashed on demand.

// SegmentManifest summarizes one segment's logical content.
type SegmentManifest struct {
	Segment string `json:"segment"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	// Hash is the FNV-64a of the logical stream's bytes, hex-encoded.
	Hash string `json:"hash"`
}

// Manifest is the per-segment content summary of a whole store.
type Manifest struct {
	Segments []SegmentManifest `json:"segments"`
}

// streamView freezes one shard's logical stream for manifest and
// streaming reads: the pack chain plus a consistent (tailRecords,
// tailEnd) pair with buffered bytes flushed, so ReadAt sees everything
// counted.
type streamView struct {
	packs         []*pack.Pack
	packedRecords int64
	packedBytes   int64
	packedHash    uint64
	tailRecs      []recMeta
	tailEnd       int64
	f             io.ReaderAt
}

func (s *Store) streamView(i int) (streamView, error) {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.bw.Flush(); err != nil {
		return streamView{}, err
	}
	v := streamView{
		packs:         sh.packs[:len(sh.packs):len(sh.packs)],
		packedRecords: sh.packedRecords,
		packedBytes:   sh.packedBytes,
		packedHash:    sh.packedHash,
		tailRecs:      append([]recMeta(nil), sh.recs...),
		tailEnd:       sh.end,
		f:             sh.f,
	}
	return v, nil
}

func (v *streamView) records() int { return int(v.packedRecords) + len(v.tailRecs) }
func (v *streamView) bytes() int64 { return v.packedBytes + v.tailEnd }

// prefixState returns the logical byte length and running FNV-64a
// state of the stream's first n records. Prefixes ending inside or at
// a pack boundary are answered from the pack index without reading
// data; only when the prefix extends into the tail are tail bytes
// hashed, resuming from the chain hash at the pack boundary.
func (v *streamView) prefixState(n int) (int64, uint64, error) {
	if n == 0 {
		return 0, pack.HashOffset, nil
	}
	if int64(n) <= v.packedRecords {
		var base int64
		for _, p := range v.packs {
			if int64(n) <= base+p.Summary.Records {
				h, b, err := p.PrefixHash(int64(n) - base)
				if err != nil {
					return 0, 0, err
				}
				return p.Summary.BaseBytes + b, h, nil
			}
			base += p.Summary.Records
		}
		return 0, 0, fmt.Errorf("capstore: pack chain shorter than %d records", n)
	}
	m := n - int(v.packedRecords)
	meta := v.tailRecs[m-1]
	tailEnd := meta.off + int64(meta.length)
	h, err := pack.HashReader(v.packedHash, io.NewSectionReader(v.f, 0, tailEnd))
	if err != nil {
		return 0, 0, fmt.Errorf("capstore: hashing tail prefix: %w", err)
	}
	return v.packedBytes + tailEnd, h, nil
}

// Manifest summarizes every segment. Concurrent ingest and compaction
// are safe: each shard's stream is snapshotted at a consistent point
// and hashed over exactly those bytes, resuming from the pack chain's
// stored boundary hash so packed bytes are never re-read.
func (s *Store) Manifest() (Manifest, error) {
	m := Manifest{Segments: make([]SegmentManifest, len(s.shards))}
	for i := range s.shards {
		v, err := s.streamView(i)
		if err != nil {
			return Manifest{}, err
		}
		bytes, hash, err := v.prefixState(v.records())
		if err != nil {
			return Manifest{}, err
		}
		m.Segments[i] = SegmentManifest{Segment: segName(i), Records: v.records(), Bytes: bytes, Hash: pack.HashHex(hash)}
	}
	return m, nil
}

// PrefixManifest summarizes the first n records of shard i — the probe
// a repair loop uses to verify that a lagging replica's segment is a
// byte prefix of this store's.
func (s *Store) PrefixManifest(i, n int) (SegmentManifest, error) {
	if i < 0 || i >= len(s.shards) {
		return SegmentManifest{}, fmt.Errorf("capstore: no shard %d", i)
	}
	v, err := s.streamView(i)
	if err != nil {
		return SegmentManifest{}, err
	}
	if n > v.records() {
		return SegmentManifest{}, fmt.Errorf("capstore: %s has %d records, prefix of %d requested", segName(i), v.records(), n)
	}
	bytes, hash, err := v.prefixState(n)
	if err != nil {
		return SegmentManifest{}, err
	}
	return SegmentManifest{Segment: segName(i), Records: n, Bytes: bytes, Hash: pack.HashHex(hash)}, nil
}

// StreamShard writes the raw wire-format bytes of shard i's records
// [from, current) to w — the repair re-stream, spliced transparently
// across the pack chain and the tail. The stream is snapshotted before
// writing, so concurrent appends and compactions never tear the
// output; the bytes are exactly what a peer's /ingest accepts.
func (s *Store) StreamShard(i, from int, w io.Writer) (records int, bytes int64, err error) {
	if i < 0 || i >= len(s.shards) {
		return 0, 0, fmt.Errorf("capstore: no shard %d", i)
	}
	v, err := s.streamView(i)
	if err != nil {
		return 0, 0, err
	}
	count := v.records()
	if from < 0 || from > count {
		return 0, 0, fmt.Errorf("capstore: %s has %d records, stream from %d requested", segName(i), count, from)
	}
	start, err := v.byteOfRecord(from)
	if err != nil {
		return 0, 0, err
	}
	end := v.bytes()
	var n int64
	var base int64
	for _, p := range v.packs {
		lo, hi := base, base+p.Summary.DataBytes
		base = hi
		if start >= hi || lo >= end {
			continue
		}
		pFrom, pTo := max64(start, lo)-lo, min64(end, hi)-lo
		c, cerr := io.Copy(w, p.DataReader(pFrom, pTo))
		n += c
		if cerr != nil {
			return 0, n, fmt.Errorf("capstore: streaming %s: %w", segName(i), cerr)
		}
	}
	if end > v.packedBytes {
		tFrom := max64(start, v.packedBytes) - v.packedBytes
		c, cerr := io.Copy(w, io.NewSectionReader(v.f, tFrom, v.tailEnd-tFrom))
		n += c
		if cerr != nil {
			return 0, n, fmt.Errorf("capstore: streaming %s: %w", segName(i), cerr)
		}
	}
	return count - from, n, nil
}

// byteOfRecord returns the logical byte offset of record n's first
// byte (== the stream's total length for n == records()).
func (v *streamView) byteOfRecord(n int) (int64, error) {
	if n == 0 {
		return 0, nil
	}
	if int64(n) <= v.packedRecords {
		b, _, err := v.prefixState(n)
		return b, err
	}
	m := n - int(v.packedRecords)
	if m == len(v.tailRecs) {
		return v.packedBytes + v.tailEnd, nil
	}
	return v.packedBytes + v.tailRecs[m].off, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// segmentRange snapshots one shard's consistent logical (count, bytes)
// pair with buffered bytes flushed — the bounds handleSegment
// validates against before committing to a response.
func (s *Store) segmentRange(i int) (records int, bytes int64, err error) {
	v, err := s.streamView(i)
	if err != nil {
		return 0, 0, err
	}
	return v.records(), v.bytes(), nil
}

// DiffKind classifies one segment's relation to a peer's.
type DiffKind int

const (
	// DiffEqual: identical content.
	DiffEqual DiffKind = iota
	// DiffBehind: this segment is a strict prefix of the peer's — the
	// peer has a suffix this replica is missing.
	DiffBehind
	// DiffAhead: the peer's segment is a strict prefix of this one.
	DiffAhead
	// DiffDiverged: neither is a prefix of the other — real corruption,
	// never produced by crash-truncation under canonical commit order.
	DiffDiverged
)

// SegmentDiff is one segment's repair decision against a peer.
type SegmentDiff struct {
	Shard int
	Kind  DiffKind
	// From/Records/Bytes describe the missing suffix when Kind is
	// DiffBehind: re-stream records [From, From+Records) (Bytes bytes)
	// from the peer.
	From    int
	Records int
	Bytes   int64
}

// DiffManifests compares a local manifest against a peer's, using
// prefixHash to fetch the hash of the longer side's prefix at the
// shorter side's record count (needed only when lengths differ).
// The callback signature keeps the function transport-agnostic: the
// repair loop passes a client call, tests pass Store.PrefixManifest.
func DiffManifests(local, peer Manifest, prefixHash func(shard, n int, ofPeer bool) (SegmentManifest, error)) ([]SegmentDiff, error) {
	if len(local.Segments) != len(peer.Segments) {
		return nil, fmt.Errorf("capstore: manifest shape mismatch: %d vs %d segments (stores created with different shard counts?)",
			len(local.Segments), len(peer.Segments))
	}
	var diffs []SegmentDiff
	for i := range local.Segments {
		l, p := local.Segments[i], peer.Segments[i]
		switch {
		case l.Records == p.Records:
			if l.Hash == p.Hash && l.Bytes == p.Bytes {
				continue
			}
			diffs = append(diffs, SegmentDiff{Shard: i, Kind: DiffDiverged})
		case l.Records < p.Records:
			pp, err := prefixHash(i, l.Records, true)
			if err != nil {
				return nil, err
			}
			if pp.Hash == l.Hash && pp.Bytes == l.Bytes {
				diffs = append(diffs, SegmentDiff{
					Shard: i, Kind: DiffBehind,
					From: l.Records, Records: p.Records - l.Records, Bytes: p.Bytes - l.Bytes,
				})
			} else {
				diffs = append(diffs, SegmentDiff{Shard: i, Kind: DiffDiverged})
			}
		default:
			lp, err := prefixHash(i, p.Records, false)
			if err != nil {
				return nil, err
			}
			if lp.Hash == p.Hash && lp.Bytes == p.Bytes {
				diffs = append(diffs, SegmentDiff{Shard: i, Kind: DiffAhead})
			} else {
				diffs = append(diffs, SegmentDiff{Shard: i, Kind: DiffDiverged})
			}
		}
	}
	return diffs, nil
}
