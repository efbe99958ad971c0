// Package capturedb persists crawl captures as line-delimited JSON and
// supports filtered scans — the reproduction's stand-in for Netograph's
// central capture database with its custom query API ("All crawl data
// is stored in a central database, which can be queried using a custom
// API", Section 3.2). The sharded, indexed store built on this wire
// format lives in internal/capstore.
//
// The on-disk schema uses short field names: the paper's platform
// stores 161 M captures, so encoding size matters more than
// readability. Its canonical line layout (codec.go) is the contract
// every store, pack and manifest hash rests on: AppendEncode writes it
// by hand, byte for byte what encoding/json wrote, and Decode reads it
// without reflection, handing any line outside that layout to the
// encoding/json decoder so that accepted input and results never
// change. Tiers that serve rows pass the stored lines through
// (DecodeLines decodes them once, where captures are wanted);
// DecodeHead reads only the leading fields a filter needs. Tiers that
// take writes pass lines through too: Canonical (keys.go) certifies a
// line as exactly what Encode writes and returns the Keys a tier
// places, deduplicates and indexes it by, without decoding it, so a
// capture is encoded once, by whoever first holds it.
package capturedb

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/capture"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

// rec is the wire schema as encoding/json reads it: decodeJSON, the
// fallback for lines outside the canonical layout (codec.go).
type rec struct {
	Seed    string   `json:"s"`
	Final   string   `json:"f"`
	Domain  string   `json:"d"`
	Day     int      `json:"t"`
	Vantage string   `json:"v"`
	Geo     int      `json:"g"`
	Cloud   bool     `json:"c,omitempty"`
	Config  string   `json:"cfg,omitempty"`
	Status  int      `json:"st"`
	Reqs    [][4]any `json:"r,omitempty"`   // [host, path, status, bytesRaw]
	Cookies []string `json:"ck,omitempty"`  // "domain|name|value"
	Storage [][4]any `json:"sto,omitempty"` // [kind, origin, key, identifying]
	Shot    string   `json:"sh,omitempty"`
	Timeout bool     `json:"to,omitempty"`
	Failed  bool     `json:"x,omitempty"`
	Err     string   `json:"e,omitempty"`
}

func (r *rec) capture() (*capture.Capture, error) {
	c := &capture.Capture{
		SeedURL: r.Seed, FinalURL: r.Final, FinalDomain: r.Domain,
		Day: simtime.Day(r.Day),
		Vantage: capture.Vantage{
			Name: r.Vantage, Geo: webworld.Geo(r.Geo), Cloud: r.Cloud,
		},
		Config: r.Config, Status: r.Status, ScreenshotText: r.Shot,
		TimedOut: r.Timeout, Failed: r.Failed, Error: r.Err,
	}
	for _, q := range r.Reqs {
		host, ok1 := q[0].(string)
		path, ok2 := q[1].(string)
		status, ok3 := q[2].(float64)
		size, ok4 := q[3].(float64)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return nil, errors.New("capturedb: malformed request tuple")
		}
		c.Requests = append(c.Requests, capture.Request{
			Host: host, Path: path, Status: int(status),
			BytesRaw: int(size), BytesCompressed: int(size),
		})
	}
	for _, s := range r.Cookies {
		var ck webworld.Cookie
		n := 0
		for i := 0; i < len(s) && n < 2; i++ {
			if s[i] == '|' {
				if n == 0 {
					ck.Domain = s[:i]
					s = s[i+1:]
					i = -1
				} else {
					ck.Name = s[:i]
					ck.Value = s[i+1:]
				}
				n++
			}
		}
		if n < 2 {
			return nil, errors.New("capturedb: malformed cookie")
		}
		c.Cookies = append(c.Cookies, ck)
	}
	for _, s := range r.Storage {
		kind, ok1 := s[0].(float64)
		origin, ok2 := s[1].(string)
		key, ok3 := s[2].(string)
		identifying, ok4 := s[3].(bool)
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return nil, errors.New("capturedb: malformed storage tuple")
		}
		c.Storage = append(c.Storage, webworld.StorageRecord{
			Kind: webworld.StorageKind(kind), Origin: origin, Key: key, Identifying: identifying,
		})
	}
	return c, nil
}

// Encode renders one capture as a wire-format line, including the
// trailing newline, so other stores (capstore's segment files) can
// reuse the framing byte-for-byte.
func Encode(c *capture.Capture) ([]byte, error) {
	line, err := AppendEncode(make([]byte, 0, encodedSize(c)), c)
	if err != nil {
		return nil, err
	}
	return line, nil
}

// Decode parses one wire-format line (with or without the trailing
// newline) back into a capture. The capture shares nothing with line.
func Decode(line []byte) (*capture.Capture, error) {
	if c := decodeFast(line); c != nil {
		return c, nil
	}
	return decodeJSON(line)
}

// decodeJSON is the reflection decoder every line outside the canonical
// layout takes; it defines what such a line decodes to.
func decodeJSON(line []byte) (*capture.Capture, error) {
	var r rec
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, err
	}
	return r.capture()
}

// DecodeLines runs stream, a producer of wire lines, for fn, a consumer
// of captures: each line is decoded once, here, and handed to fn. A line
// that does not decode ends the stream with its error. It is how a
// caller that wants captures reads a tier that serves stored lines.
func DecodeLines(stream func(emit func(line []byte) bool) error, fn func(*capture.Capture) bool) error {
	var derr error
	n := 0
	err := stream(func(line []byte) bool {
		n++
		c, err := Decode(line)
		if err != nil {
			derr = fmt.Errorf("capturedb: line %d: %w", n, err)
			return false
		}
		return fn(c)
	})
	if derr != nil {
		return derr
	}
	return err
}

// Writer appends captures to a JSONL stream. It implements
// capture.Sink and is safe for concurrent use; the first write error
// is retained and returned by Close.
type Writer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	n   int64
	err error
}

// NewWriter wraps an io.Writer (Closer optional).
func NewWriter(w io.Writer) *Writer {
	wr := &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		wr.c = c
	}
	return wr
}

// Create opens path for writing, truncating any existing file.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewWriter(f), nil
}

// Record implements capture.Sink.
func (w *Writer) Record(c *capture.Capture) {
	line, err := Encode(c)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err != nil {
		w.err = err
		return
	}
	if _, err := w.bw.Write(line); err != nil {
		w.err = err
		return
	}
	w.n++
}

// Len returns the number of records written.
func (w *Writer) Len() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Close flushes and closes the stream, returning the first error
// encountered during writing.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if w.c != nil {
		if err := w.c.Close(); err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// Query filters a scan. Zero values match everything.
type Query struct {
	// Domain restricts to one final registrable domain.
	Domain string
	// From/To bound the capture day, inclusive. The upper bound is
	// active when HasTo is set or To > 0; a query for day 0 only is
	// therefore Query{To: 0, HasTo: true}.
	From, To simtime.Day
	// HasTo makes the To bound explicit even when To == 0.
	HasTo bool
	// Vantage restricts to one vantage name.
	Vantage string
	// RequestHost restricts to captures that logged a request to the
	// host (e.g. a CMP indicator hostname).
	RequestHost string
	// IncludeFailed also yields failed captures.
	IncludeFailed bool
}

// Upper returns the inclusive upper day bound and whether one is set.
func (q *Query) Upper() (simtime.Day, bool) {
	return q.To, q.HasTo || q.To > 0
}

// MatchMeta applies only the filters covered by per-record index
// metadata — the day bounds and the failed flag — so an indexed store
// can discard a record without decoding it.
func (q *Query) MatchMeta(day simtime.Day, failed bool) bool {
	if failed && !q.IncludeFailed {
		return false
	}
	upper, ok := q.Upper()
	return day >= q.From && (!ok || day <= upper)
}

// Match reports whether c satisfies every filter of q.
func (q *Query) Match(c *capture.Capture) bool {
	if c.Failed && !q.IncludeFailed {
		return false
	}
	if q.Domain != "" && c.FinalDomain != q.Domain {
		return false
	}
	if upper, ok := q.Upper(); c.Day < q.From || (ok && c.Day > upper) {
		return false
	}
	if q.Vantage != "" && c.Vantage.Name != q.Vantage {
		return false
	}
	if q.RequestHost != "" {
		found := false
		for _, r := range c.Requests {
			if r.Host == q.RequestHost {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// ErrTruncated marks a stream whose final record was cut short by a
// torn write (crash mid-append): every complete record before it has
// already been yielded. Callers test with errors.Is.
var ErrTruncated = errors.New("capturedb: truncated final record")

// RecordReader iterates a JSONL capture stream record by record,
// tracking byte offsets so indexed stores can address records inside
// segment files. A final line without a terminating newline that does
// not parse is reported as ErrTruncated; Valid() then gives the byte
// length of the intact prefix, suitable for os.File.Truncate repair.
type RecordReader struct {
	br    *bufio.Reader
	long  []byte // a line longer than br's buffer, reused
	off   int64  // offset of the next unread record
	valid int64  // end offset of the last complete record
	line  int
	done  bool
}

// NewRecordReader wraps r.
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Offset returns the byte offset at which the next record starts.
func (rr *RecordReader) Offset() int64 { return rr.off }

// Valid returns the end offset of the last complete record read.
func (rr *RecordReader) Valid() int64 { return rr.valid }

// Line returns the 1-based line number of the last record returned.
func (rr *RecordReader) Line() int { return rr.line }

// Next returns the next capture. It returns io.EOF at a clean end of
// stream, ErrTruncated (wrapped) for a torn final line, and a
// line-numbered parse error for malformed complete lines.
func (rr *RecordReader) Next() (*capture.Capture, error) {
	c, _, err := rr.next(true)
	return c, err
}

// NextLine returns the next record's wire line, newline-terminated,
// without decoding it; the bytes are valid until the next call. Only a
// final line without a newline is decoded, to tell a clean record
// (returned with its newline added) from a torn one (ErrTruncated, as
// Next reports it).
func (rr *RecordReader) NextLine() ([]byte, error) {
	_, line, err := rr.next(false)
	return line, err
}

// next reads one record, decoding it when decode is set or when it is
// an unterminated final line.
func (rr *RecordReader) next(decode bool) (*capture.Capture, []byte, error) {
	if rr.done {
		return nil, nil, io.EOF
	}
	data, err := rr.readLine()
	if err != nil && err != io.EOF {
		return nil, nil, err
	}
	if len(data) == 0 {
		rr.done = true
		return nil, nil, io.EOF
	}
	terminated := data[len(data)-1] == '\n'
	rr.line++
	var c *capture.Capture
	if decode || !terminated {
		var derr error
		if c, derr = Decode(data); derr != nil {
			if !terminated {
				// Torn write: an unterminated, unparseable tail.
				rr.done = true
				return nil, nil, fmt.Errorf("line %d (offset %d): %w", rr.line, rr.off, ErrTruncated)
			}
			return nil, nil, fmt.Errorf("capturedb: line %d: %w", rr.line, derr)
		}
	}
	rr.off += int64(len(data))
	rr.valid = rr.off
	if !terminated {
		rr.done = true
		rr.long = append(append(rr.long[:0], data...), '\n')
		data = rr.long
	}
	return c, data, nil
}

// readLine returns the next line, newline included when there is one,
// in br's buffer or, for a line longer than it, in rr.long.
func (rr *RecordReader) readLine() ([]byte, error) {
	line, err := rr.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	rr.long = append(rr.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = rr.br.ReadSlice('\n')
		rr.long = append(rr.long, line...)
	}
	return rr.long, err
}

// Scan streams matching captures to fn; returning false from fn stops
// the scan early. Malformed complete lines abort with an error that
// names the line number; a crash-truncated final line yields all
// complete records first and then returns ErrTruncated (wrapped).
func Scan(r io.Reader, q Query, fn func(*capture.Capture) bool) error {
	rr := NewRecordReader(r)
	for {
		c, err := rr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !q.Match(c) {
			continue
		}
		if !fn(c) {
			return nil
		}
	}
}

// ScanFile opens path and scans it.
func ScanFile(path string, q Query, fn func(*capture.Capture) bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return Scan(f, q, fn)
}

// Count returns the number of matches.
func Count(r io.Reader, q Query) (int, error) {
	n := 0
	err := Scan(r, q, func(*capture.Capture) bool { n++; return true })
	return n, err
}
