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
	"strings"
	"time"

	"repro/internal/capture"
	"repro/internal/capturedb"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Client runs queries against a live capd over HTTP, mirroring the
// local Store API so cmd/capq can target either interchangeably.
type Client struct {
	// BaseURL is the capd root, e.g. "http://127.0.0.1:8650".
	BaseURL string
	// HTTP defaults to http.DefaultClient.
	HTTP *http.Client
	// Retry, when enabled (MaxAttempts > 1), makes ingest pushes absorb
	// transient failures client-side instead of surfacing them to the
	// caller: 503 ordered-mode shedding honours the server's
	// Retry-After hint, and transport errors classified Retryable by
	// the resilience taxonomy back off on the policy's schedule.
	// Terminal errors and an exhausted budget still surface.
	Retry resilience.RetryPolicy
	// Sleep is the retry clock, injectable for tests (default
	// time.Sleep).
	Sleep func(time.Duration)
}

// NewClient returns a client for the capd at base.
func NewClient(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

func (cl *Client) httpClient() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

// params encodes the shared Query type as URL parameters; a set upper
// bound is always sent explicitly so day-0 bounds survive the wire.
func params(q capturedb.Query, limit, offset int) url.Values {
	v := url.Values{}
	if q.Domain != "" {
		v.Set("domain", q.Domain)
	}
	if q.RequestHost != "" {
		v.Set("host", q.RequestHost)
	}
	if q.Vantage != "" {
		v.Set("vantage", q.Vantage)
	}
	if q.From > 0 {
		v.Set("from", strconv.Itoa(int(q.From)))
	}
	if upper, ok := q.Upper(); ok {
		v.Set("to", strconv.Itoa(int(upper)))
	}
	if q.IncludeFailed {
		v.Set("failed", "1")
	}
	if limit > 0 {
		v.Set("limit", strconv.Itoa(limit))
	}
	if offset > 0 {
		v.Set("offset", strconv.Itoa(offset))
	}
	return v
}

func (cl *Client) get(ctx context.Context, path string, v url.Values) (*http.Response, error) {
	u := cl.BaseURL + path
	if enc := v.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if err := statusError(path, resp); err != nil {
		resp.Body.Close()
		return nil, err
	}
	return resp, nil
}

// statusError turns a non-200 reply into an error carrying the
// server's message.
func statusError(path string, resp *http.Response) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("capstore: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
}

// decodeReply checks a reply's status, decodes its JSON body into out
// and closes it.
func decodeReply(path string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	if err := statusError(path, resp); err != nil {
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("capstore: %s: %w", path, err)
	}
	return nil
}

// getJSON GETs path and decodes the JSON reply into out.
func (cl *Client) getJSON(ctx context.Context, path string, v url.Values, out any) error {
	resp, err := cl.get(ctx, path, v)
	if err != nil {
		return err
	}
	return decodeReply(path, resp, out)
}

// Query streams matches from /query to fn; returning false from fn
// stops early. limit and offset paginate server-side (0 limit means
// unlimited). A stream cut mid-record surfaces as an error
// (capturedb.ErrTruncated or a transport error), never as a clean end.
func (cl *Client) Query(q capturedb.Query, limit, offset int, fn func(*capture.Capture) bool) error {
	return capturedb.DecodeLines(func(emit func([]byte) bool) error {
		return cl.stream(context.Background(), params(q, limit, offset), emit)
	}, fn)
}

// stream runs one /query request and hands its rows to fn as the
// server sent them, each valid only during the call.
func (cl *Client) stream(ctx context.Context, v url.Values, fn func(line []byte) bool) error {
	resp, err := cl.get(ctx, "/query", v)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	rr := capturedb.NewRecordReader(resp.Body)
	for {
		line, err := rr.NextLine()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !fn(line) {
			return nil
		}
	}
}

// Count runs the query server-side via /count.
func (cl *Client) Count(q capturedb.Query) (int, error) {
	return cl.count(context.Background(), params(q, 0, 0))
}

func (cl *Client) count(ctx context.Context, v url.Values) (int, error) {
	var out struct {
		Count int `json:"count"`
	}
	err := cl.getJSON(ctx, "/count", v, &out)
	return out.Count, err
}

// Health fetches /healthz — served outside the server's load-shedding
// limiter, so it answers even when queries are being shed. The
// Telemetry field is populated only when the server runs with metrics
// enabled.
func (cl *Client) Health() (Health, error) {
	var h Health
	err := cl.getJSON(context.Background(), "/healthz", nil, &h)
	return h, err
}

// ShedError is a 503 from /ingest (ordered-mode reorder shedding)
// carrying the server's Retry-After hint. It unwraps to ErrIngestShed
// so existing errors.Is checks keep working.
type ShedError struct {
	// RetryAfter is the server's backoff hint (zero when the header was
	// absent or unparseable).
	RetryAfter time.Duration
}

func (e *ShedError) Error() string { return ErrIngestShed.Error() }
func (e *ShedError) Unwrap() error { return ErrIngestShed }

// parseRetryAfter reads a delay-seconds Retry-After value; HTTP-date
// forms are ignored (the servers here only ever send seconds).
func parseRetryAfter(h string) time.Duration {
	if n, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && n >= 0 {
		return time.Duration(n) * time.Second
	}
	return 0
}

// ingestOnce POSTs an NDJSON body to /ingest and decodes the
// IngestResult. trace, when non-empty, rides the Traceparent header so
// the server's ingest span joins the pusher's trace. A 503 (reorder
// buffer full) is surfaced as a *ShedError wrapping ErrIngestShed.
func (cl *Client) ingestOnce(v url.Values, trace string, body []byte) (IngestResult, error) {
	u := cl.BaseURL + "/ingest"
	if enc := v.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return IngestResult{}, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if trace != "" {
		req.Header.Set(obs.TraceparentHeader, trace)
	}
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		return IngestResult{}, err
	}
	return ingestReply(resp)
}

// ingestReply reads an /ingest reply: the IngestResult, or a *ShedError
// for a 503.
func ingestReply(resp *http.Response) (IngestResult, error) {
	var res IngestResult
	if resp.StatusCode == http.StatusServiceUnavailable {
		defer resp.Body.Close()
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512)) //nolint:errcheck
		return res, &ShedError{RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	}
	err := decodeReply("/ingest", resp, &res)
	return res, err
}

// ingest pushes with the client's retry policy. Re-delivery after an
// ambiguous failure is safe: the server's idempotency keys drop
// duplicates. Shedding honours the server's Retry-After (or the
// policy's backoff, whichever is longer); other errors retry only when
// the resilience taxonomy classifies them Retryable.
func (cl *Client) ingest(v url.Values, trace string, body []byte) (IngestResult, error) {
	res, err := cl.ingestOnce(v, trace, body)
	if err == nil || !cl.Retry.Enabled() {
		return res, err
	}
	sleep := cl.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	for attempt := 1; attempt < cl.Retry.MaxAttempts; attempt++ {
		delay := cl.Retry.Backoff(nil, attempt)
		var shed *ShedError
		if errors.As(err, &shed) {
			if shed.RetryAfter > delay {
				delay = shed.RetryAfter
			}
		} else if resilience.ClassifyError(err.Error()) == resilience.Terminal {
			return res, err
		}
		sleep(delay)
		res, err = cl.ingestOnce(v, trace, body)
		if err == nil {
			return res, nil
		}
	}
	return res, err
}

// encodeBatch renders captures as an NDJSON request body.
func encodeBatch(caps []*capture.Capture) ([]byte, error) {
	var buf bytes.Buffer
	for _, c := range caps {
		line, err := capturedb.Encode(c)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
	}
	return buf.Bytes(), nil
}

// Record pushes one capture over /ingest (unordered mode). Re-delivery
// of the same share is idempotent server-side.
func (cl *Client) Record(c *capture.Capture) (IngestResult, error) {
	return cl.RecordBatch([]*capture.Capture{c})
}

// RecordBatch pushes captures over /ingest (unordered mode); they are
// applied in slice order with per-record idempotency.
func (cl *Client) RecordBatch(caps []*capture.Capture) (IngestResult, error) {
	body, err := encodeBatch(caps)
	if err != nil {
		return IngestResult{}, err
	}
	return cl.ingest(nil, "", body)
}

// RecordLinesTrace pushes wire lines, newline-terminated, over /ingest
// (unordered mode) as they are — the replica fan-out path, which
// forwards the lines it received — carrying a propagated trace context
// (traceparent form; empty disables).
func (cl *Client) RecordLinesTrace(trace string, lines [][]byte) (IngestResult, error) {
	return cl.ingest(nil, trace, bytes.Join(lines, nil))
}

// RecordBatchAt pushes the ordered batch covering work items [at, at+n)
// — the fleet's commit path. caps may be shorter than n (failed or
// dead-lettered items produce no record) or empty (a pure skip marker
// advancing the commit cursor). The server commits ranges strictly in
// order; ErrIngestShed means the reorder buffer is full and the push
// should be retried after a short delay.
func (cl *Client) RecordBatchAt(at, n int64, caps []*capture.Capture) (IngestResult, error) {
	return cl.RecordBatchAtTrace("", at, n, caps)
}

// RecordBatchAtTrace is RecordBatchAt carrying a propagated trace
// context (traceparent form; empty disables) — the fleet worker's push
// path, which hands its push-span context to the store.
func (cl *Client) RecordBatchAtTrace(trace string, at, n int64, caps []*capture.Capture) (IngestResult, error) {
	body, err := encodeBatch(caps)
	if err != nil {
		return IngestResult{}, err
	}
	v := url.Values{}
	v.Set("at", strconv.FormatInt(at, 10))
	v.Set("n", strconv.FormatInt(n, 10))
	return cl.ingest(v, trace, body)
}

// RecordStream pushes a raw wire-format NDJSON stream over /ingest
// (unordered mode) without buffering it — the repair re-stream sink,
// fed directly from a peer's SegmentReader. No client-side retry: a
// one-shot reader cannot be replayed, so the caller owns recovery
// (re-delivery is idempotent server-side).
func (cl *Client) RecordStream(r io.Reader) (IngestResult, error) {
	resp, err := cl.httpClient().Post(cl.BaseURL+"/ingest", "application/x-ndjson", r)
	if err != nil {
		return IngestResult{}, err
	}
	return ingestReply(resp)
}

// CountShard runs the query server-side against one segment.
func (cl *Client) CountShard(ctx context.Context, shard int, q capturedb.Query) (int, error) {
	v := params(q, 0, 0)
	v.Set("shard", strconv.Itoa(shard))
	return cl.count(ctx, v)
}

// Manifest fetches the server's per-segment content summary.
func (cl *Client) Manifest() (Manifest, error) {
	var m Manifest
	err := cl.getJSON(context.Background(), "/manifest", nil, &m)
	return m, err
}

// PrefixManifest fetches the manifest of shard's first n records —
// the repair loop's prefix-verification probe.
func (cl *Client) PrefixManifest(shard, n int) (SegmentManifest, error) {
	var m SegmentManifest
	v := url.Values{}
	v.Set("shard", strconv.Itoa(shard))
	v.Set("n", strconv.Itoa(n))
	err := cl.getJSON(context.Background(), "/manifest", v, &m)
	return m, err
}

// SegmentReader opens the raw wire-format stream of shard's records
// [from, current) — the repair re-stream. The caller must Close it.
// The bytes are directly acceptable to a peer's /ingest.
func (cl *Client) SegmentReader(shard, from int) (io.ReadCloser, error) {
	v := url.Values{}
	v.Set("shard", strconv.Itoa(shard))
	v.Set("from", strconv.Itoa(from))
	resp, err := cl.get(context.Background(), "/segment", v)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// QueryShard streams one segment's matches — the replicated read
// path's per-segment fan-out unit. Semantics otherwise match Query.
func (cl *Client) QueryShard(shard int, q capturedb.Query, limit, offset int, fn func(*capture.Capture) bool) error {
	return cl.QueryShardContext(context.Background(), shard, q, limit, offset, fn)
}

// QueryShardContext is QueryShard bound to ctx: cancelling it abandons
// the stream and releases the connection.
func (cl *Client) QueryShardContext(ctx context.Context, shard int, q capturedb.Query, limit, offset int, fn func(*capture.Capture) bool) error {
	return capturedb.DecodeLines(func(emit func([]byte) bool) error {
		return cl.QueryShardLines(ctx, shard, q, limit, offset, emit)
	}, fn)
}

// QueryShardLines is QueryShardContext handing on each row as the line
// the node stored, undecoded and valid only during the call — what a
// tier that forwards rows reads.
func (cl *Client) QueryShardLines(ctx context.Context, shard int, q capturedb.Query, limit, offset int, fn func(line []byte) bool) error {
	v := params(q, limit, offset)
	v.Set("shard", strconv.Itoa(shard))
	return cl.stream(ctx, v, fn)
}

// CompactResult is capd's /compact response: what one forced
// compaction pass packed and the store's resulting pack shape.
type CompactResult struct {
	PackedRecords int64 `json:"packed_records"`
	Packs         int   `json:"packs"`
	Compactions   int64 `json:"compactions"`
}

// Compact asks the server to fold every shard's tail into packs now —
// the admin trigger behind capring's fleet-wide compaction fan-out.
func (cl *Client) Compact() (CompactResult, error) {
	var res CompactResult
	resp, err := cl.httpClient().Post(cl.BaseURL+"/compact", "", nil)
	if err != nil {
		return res, err
	}
	err = decodeReply("/compact", resp, &res)
	return res, err
}

// Stats fetches the server's store snapshot.
func (cl *Client) Stats() (Stats, error) {
	var st Stats
	err := cl.getJSON(context.Background(), "/stats", nil, &st)
	return st, err
}
