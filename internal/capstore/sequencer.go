package capstore

import (
	"bytes"
	"errors"
	"strconv"

	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/obs"
)

// Batch is one /ingest delivery: its records as canonical wire lines
// (capturedb.Canonical), each with the keys a tier routes, deduplicates
// and indexes it by. Every tier forwards or appends the lines as they
// are; none decodes them.
type Batch struct {
	// Ordered marks a coordinator-ordered delivery covering work items
	// [At, At+N); an unordered batch commits in arrival order and leaves
	// At and N zero.
	Ordered bool
	At, N   int64
	// Lines are the records those items produced, newline-terminated —
	// possibly fewer than N (dead-lettered items produce none) and
	// possibly zero (a skip marker that only advances the commit
	// cursor). Keys[i] are the keys of Lines[i].
	Lines [][]byte
	Keys  []capturedb.Keys
	// Trace is the pusher's trace context; the zero value means the push
	// carried none.
	Trace obs.SpanContext

	// hosts backs the keys' host lists; a list handed out earlier keeps
	// the array it was cut from when hosts grows.
	hosts [][]byte
}

// AddLines appends the newline-separated wire lines of data, which the
// batch takes over, each in canonical form with its keys: a line the key
// scanner certifies stays where it is in data, any other is re-encoded.
// A line that does not decode stops it: the result is its 1-based
// number and capturedb.Decode's error — a line no tier may store.
func (b *Batch) AddLines(data []byte) (int, error) {
	for n := 1; len(data) > 0; n++ {
		end := bytes.IndexByte(data, '\n') + 1
		if end == 0 {
			end = len(data)
		}
		k := b.newKeys()
		line, err := capturedb.Canonical(data[:end:end], &k)
		if err != nil {
			return n, err
		}
		b.add(line, k)
		data = data[end:]
	}
	return 0, nil
}

// BatchOf encodes caps, each once, into an unordered batch: how the
// capture entry points (Ingester.IngestBatch, the ring Writer's
// RecordBatch) join the line path. A capture that cannot be stored is
// left out; the error names the first.
func BatchOf(caps []*capture.Capture) (Batch, error) {
	var (
		b     Batch
		first error
	)
	for _, c := range caps {
		k := b.newKeys()
		line, err := capturedb.EncodeKeys(c, &k)
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		b.add(line, k)
	}
	return b, first
}

// newKeys returns empty keys for the next line, their host list cut
// from the free end of b.hosts.
func (b *Batch) newKeys() capturedb.Keys {
	if cap(b.hosts)-len(b.hosts) < 16 {
		b.hosts = make([][]byte, 0, max(64, 2*cap(b.hosts)))
	}
	return capturedb.Keys{Hosts: b.hosts[len(b.hosts):len(b.hosts)]}
}

// add appends line with its keys k, which newKeys began. When the scan
// wrote k's hosts into b.hosts' free end, they are taken out of it.
func (b *Batch) add(line []byte, k capturedb.Keys) {
	n := len(k.Hosts)
	if free := b.hosts[len(b.hosts):cap(b.hosts)]; n > 0 && n <= len(free) && &k.Hosts[0] == &free[0] {
		b.hosts = b.hosts[:len(b.hosts)+n]
	}
	k.Hosts = k.Hosts[:n:n]
	b.Lines = append(b.Lines, line)
	b.Keys = append(b.Keys, k)
}

// Span starts the batch's server-side span as a child of the pusher's,
// or returns nil (every Span method is a no-op on nil) when the push
// carried no trace context: untraced requests stay unspanned. The
// identity attrs are the batch's canonical coordinates (its range when
// ordered, nothing otherwise) — never per-node or per-request values
// such as node names, queue depths or retry counts — so replica
// re-deliveries of one batch collapse to one span at assembly and
// exports stay byte-identical across worker counts and replica layouts.
func (b Batch) Span(tr *obs.Tracer, name string) *obs.Span {
	if !b.Trace.Valid() {
		return nil
	}
	if !b.Ordered {
		return tr.StartRemote(name, b.Trace)
	}
	return tr.StartRemote(name, b.Trace,
		obs.A("at", strconv.FormatInt(b.At, 10)),
		obs.A("n", strconv.FormatInt(b.N, 10)))
}

// ErrIngestShed marks an out-of-order ordered batch refused because the
// reorder buffer is full; the caller should retry after the cursor
// advances.
var ErrIngestShed = errors.New("capstore: ingest reorder buffer full")

// Outcome is what a Sequencer did with an offered batch.
type Outcome int

const (
	// Released: the batch was next in line; it and every waiting batch it
	// unblocked were handed to commit, in range order.
	Released Outcome = iota
	// Buffered: the batch is ahead of the cursor and waits its turn.
	Buffered
	// Duplicate: the batch's range is already committed or already
	// waiting — a re-delivery, dropped whole.
	Duplicate
	// Shed: the batch is ahead of the cursor and the buffer is full.
	Shed
)

// Sequencer is the ordered-commit reorder buffer: coordinator-ordered
// batches are offered in any order and released strictly in range
// order, each exactly once. This is the one place a batch receives its
// canonical position — what makes a fleet of workers produce a store
// byte-identical to a single-process run, whichever tier commits — and
// so the point a commit feed publishes from.
//
// The buffer is the ingest path's graceful-degradation valve: past its
// bound, out-of-order batches are shed instead of growing memory
// without limit; the batch that unblocks the cursor is always admitted.
//
// A Sequencer is not safe for concurrent use: its owner calls Offer
// under the lock that also serializes its commits, so release order is
// commit order.
type Sequencer struct {
	max     int
	next    int64
	pending map[int64]Batch
}

// NewSequencer returns a Sequencer at cursor 0 buffering at most
// maxPending out-of-order batches (default 64, on every tier).
func NewSequencer(maxPending int) *Sequencer {
	if maxPending <= 0 {
		maxPending = 64
	}
	return &Sequencer{max: maxPending, pending: make(map[int64]Batch)}
}

// Next is the commit cursor: every work item below it has been released
// (committed or skipped).
func (s *Sequencer) Next() int64 { return s.next }

// Pending is the reorder-buffer occupancy.
func (s *Sequencer) Pending() int { return len(s.pending) }

// Offer presents the ordered batch b. When b is next in line, commit is
// called for b and then for each waiting batch b unblocked, in range
// order, the cursor moving past each as it returns. The error (which
// wraps ErrBadRequest) refuses a range no coordinator issues.
func (s *Sequencer) Offer(b Batch, commit func(Batch)) (Outcome, error) {
	if b.At < 0 || b.N < 1 || int64(len(b.Lines)) > b.N {
		return 0, badRequest("ordered batch at=%d n=%d records=%d", b.At, b.N, len(b.Lines))
	}
	if _, waiting := s.pending[b.At]; waiting || b.At < s.next {
		return Duplicate, nil
	}
	if b.At > s.next {
		if len(s.pending) >= s.max {
			return Shed, nil
		}
		s.pending[b.At] = b
		return Buffered, nil
	}
	for {
		commit(b)
		s.next = b.At + b.N
		unblocked, ok := s.pending[s.next]
		if !ok {
			return Released, nil
		}
		delete(s.pending, s.next)
		b = unblocked
	}
}
