package capstore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/capturedb"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// The front door: the paper's "custom query API" (§3.2) and the
// fleet's write path, as one HTTP dialect spoken by every storage tier.
// cmd/capd serves it over a Store and its Ingester, cmd/capring over a
// replica ring — same parsing, same replies, same status codes, so the
// fleet, capq and analyzed talk to either without knowing which.
//
//	POST /ingest            NDJSON in the capturedb wire format, one
//	                        record per line, applied in body order
//	POST /ingest?at=S&n=N   the same, coordinator-ordered
//	    → IngestResult JSON
//	GET /query?domain=D&host=H&vantage=V&from=D1&to=D2&failed=1&limit=N&offset=M
//	    → streaming NDJSON, one capturedb wire-format record per line
//	GET /count?…same filters…   → {"count": N}
//
// Two delivery modes share /ingest:
//
//   - Unordered (no parameters): records commit as they arrive. A
//     storage node drops a record whose IngestKey it already holds, so
//     clients may re-deliver after an ambiguous transport failure
//     without duplicating storage.
//
//   - Ordered (?at=S&n=N): the batch covers work items [S, S+N) of a
//     coordinator-assigned total order, and batches commit in exactly
//     that order through a Sequencer. Out-of-order arrivals wait in its
//     bounded buffer; a batch whose range was already committed (or is
//     already waiting) is a duplicate delivery and is dropped whole.
//
// A tier never decodes what it is pushed. Each /ingest line goes
// through capturedb.Canonical: a line exactly as capturedb.Encode
// writes it is kept byte for byte and only its keys are read (domain to
// place it, seed URL, day and configuration for its IngestKey, day,
// failed flag and request hosts for the indexes); any other line is
// stored as capturedb.Encode(capturedb.Decode(line)). The ring forwards
// the lines to its nodes as it received them, and a node appends them
// as they arrive, so the bytes in a segment are the bytes the worker
// encoded. A body holding a line that does not decode is refused whole
// (400, naming the line), before anything reaches a Sequencer.
//
// from/to are simulation day numbers (simtime.Day); a present `to`
// parameter makes the upper bound explicit even for day 0. shard=N
// restricts a read to one segment of a storage node — the replicated
// read path's unit of fan-out — and offset then paginates within that
// segment's stream.
//
// Every failure goes through one table (writeError): 400 for a request
// that does not parse or that the tier refuses as malformed
// (ErrBadRequest), 503 + Retry-After for what a retry can cure
// (reorder-buffer shedding, a missed write quorum, replicas exhausted,
// an expired request deadline), 500 otherwise. A /query stream that
// fails after its first row is cut, never ended cleanly.

// maxIngestBody caps one /ingest request body. Fleet chunks are a few
// hundred records (well under 1 MiB); the largest legitimate body is a
// repair re-stream of one whole segment, which 64 MiB clears with room
// at every store size the tests and smokes reach.
const maxIngestBody = 64 << 20

// flushEvery is how many streamed rows go out between explicit
// http.Flusher flushes, so long queries stream instead of buffering.
const flushEvery = 256

// Read is one parsed /query or /count request, less its pagination
// (the front door applies limit and offset itself).
type Read struct {
	Query capturedb.Query
	// Shard restricts the read to one segment; -1 reads everything.
	Shard int
}

// Backend is a storage tier behind the front door.
type Backend interface {
	// Commit applies one /ingest batch and returns once it is as safe as
	// the tier promises (flushed; on a ring, at its write quorum).
	Commit(b Batch) (IngestResult, error)
	// Stream hands the matches of r to fn in the tier's canonical order
	// until fn returns false, each as its stored wire line: newline
	// included, never re-encoded, valid only during the call.
	Stream(ctx context.Context, r Read, fn func(line []byte) bool) error
	// Count counts the matches of r.
	Count(ctx context.Context, r Read) (int64, error)
}

// ErrBadRequest marks a request a storage tier refuses as malformed;
// the front door answers it 400.
var ErrBadRequest = errors.New("capstore: bad request")

// ErrUnavailable marks a failure a retry can cure — a write quorum not
// reached in time, a segment none of whose replicas answered. The front
// door answers it 503 + Retry-After.
var ErrUnavailable = errors.New("retry later")

// FrontDoor serves the dialect over a Backend. Mount the three handlers
// where the tier's admission policy wants them (capd keeps /ingest
// outside its query limiter).
type FrontDoor struct{ Backend }

// writeError answers a failed request from the one error → status
// table. Nothing of the reply may have been written yet.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case r.Context().Err() != nil:
		// The request's own deadline, whatever error it surfaced as.
		err = errors.New("capstore: request timed out")
		fallthrough
	case errors.Is(err, ErrIngestShed), errors.Is(err, ErrUnavailable):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), status)
}

// badRequest is an ErrBadRequest that says what was wrong.
func badRequest(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadRequest}, args...)...)
}

// ServeIngest implements POST /ingest.
func (f FrontDoor) ServeIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "capstore: /ingest is POST-only", http.StatusMethodNotAllowed)
		return
	}
	var b Batch
	values := r.URL.Query()
	if at, n := values.Get("at"), values.Get("n"); at != "" || n != "" {
		b.Ordered = true
		var err error
		if b.At, err = strconv.ParseInt(at, 10, 64); err != nil || b.At < 0 {
			writeError(w, r, badRequest("at=%q", at))
			return
		}
		if b.N, err = strconv.ParseInt(n, 10, 64); err != nil || b.N < 1 {
			writeError(w, r, badRequest("n=%q", n))
			return
		}
	}
	// Adopt the pusher's trace context, if any. A malformed or absent
	// header leaves the batch untraced; tracing never fails an ingest.
	b.Trace, _ = obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))

	// The body is read whole, as the batch keeps its lines. Each is
	// certified canonical by the key scanner or decoded and re-encoded;
	// one that does not decode fails the whole request, so no line a
	// storage node would refuse reaches the Sequencer.
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxIngestBody), r.ContentLength)
	if err != nil {
		writeError(w, r, badRequest("/ingest: %v", err))
		return
	}
	if n, err := b.AddLines(body); err != nil {
		writeError(w, r, badRequest("/ingest line %d: %v", n, err))
		return
	}
	res, err := f.Commit(b)
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res) //nolint:errcheck
}

// readBody reads r to its end into one buffer, sized to the declared
// length when there is one.
func readBody(r io.Reader, size int64) ([]byte, error) {
	if size <= 0 || size > maxIngestBody {
		size = 64 << 10
	}
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// parseShard reads an optional shard=N parameter; -1 means absent.
func parseShard(values url.Values) (int, error) {
	v := values.Get("shard")
	if v == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return -1, badRequest("shard=%q", v)
	}
	return n, nil
}

// parseRead translates the URL parameters of a /query or /count request
// into the shared Query type, the shard restriction and the pagination
// bounds.
func parseRead(values url.Values) (rd Read, limit, offset int, err error) {
	q := &rd.Query
	q.Domain = values.Get("domain")
	q.RequestHost = values.Get("host")
	q.Vantage = values.Get("vantage")
	switch v := values.Get("failed"); v {
	case "", "0", "false":
	case "1", "true":
		q.IncludeFailed = true
	default:
		return rd, 0, 0, badRequest("failed=%q", v)
	}
	// atoi reads an optional integer parameter; an empty value is unset.
	atoi := func(key string) (n int, set bool) {
		v := values.Get(key)
		if v == "" || err != nil {
			return 0, false
		}
		if n, err = strconv.Atoi(v); err != nil {
			err = badRequest("%s=%q", key, v)
		}
		return n, err == nil
	}
	if n, set := atoi("from"); set {
		q.From = simtime.Day(n)
	}
	if n, set := atoi("to"); set {
		q.To, q.HasTo = simtime.Day(n), true
	}
	limit, _ = atoi("limit")
	offset, _ = atoi("offset")
	if err == nil && (limit < 0 || offset < 0) {
		err = badRequest("negative limit=%d or offset=%d", limit, offset)
	}
	if err == nil {
		rd.Shard, err = parseShard(values)
	}
	return rd, limit, offset, err
}

// Page wraps fn with limit/offset pagination over a stream of matching
// lines: the first offset matches are skipped, and the stream stops once
// limit have been handed on (0 means unlimited) or fn returns false.
func Page(limit, offset int, fn func(line []byte) bool) func(line []byte) bool {
	seen, sent := 0, 0
	return func(line []byte) bool {
		seen++
		if seen <= offset {
			return true
		}
		if !fn(line) {
			return false
		}
		sent++
		return limit == 0 || sent < limit
	}
}

// ServeQuery implements GET /query: matches streamed as NDJSON with
// limit/offset pagination, each row the line the backend stored. The
// request context is honoured between rows, so long streams degrade by
// being cut, not by buffering forever.
func (f FrontDoor) ServeQuery(w http.ResponseWriter, r *http.Request) {
	rd, limit, offset, err := parseRead(r.URL.Query())
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sent := 0
	var werr error
	qerr := f.Stream(r.Context(), rd, Page(limit, offset, func(line []byte) bool {
		if _, err := w.Write(line); err != nil {
			werr = err
			return false
		}
		sent++
		if flusher != nil && sent%flushEvery == 0 {
			flusher.Flush()
		}
		return true
	}))
	switch {
	case qerr == nil && werr == nil:
	case sent > 0 && (werr == nil || r.Context().Err() != nil):
		// Mid-stream failure or timeout: the status line is gone; cut
		// the connection so the client sees a torn stream, not a clean
		// end.
		panic(http.ErrAbortHandler)
	case sent == 0 && werr == nil:
		// Nothing went out yet: a clean error reply (503 when the
		// deadline hit before the first row).
		writeError(w, r, qerr)
	}
}

// ServeCount implements GET /count, answering {"count": N}. A count
// that has to read records honours the request context as /query does
// and answers 503 once it has expired.
func (f FrontDoor) ServeCount(w http.ResponseWriter, r *http.Request) {
	rd, _, _, err := parseRead(r.URL.Query())
	if err != nil {
		writeError(w, r, err)
		return
	}
	n, err := f.Count(r.Context(), rd)
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int64{"count": n}) //nolint:errcheck
}
