package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client speaks the wire protocol to a coordinator. It is a thin
// transport: retry policy lives in the worker loop, which knows which
// exchanges are idempotent (all of them — grants are leased, heartbeats
// are monotone, reported outcomes dedup server-side).
type Client struct {
	// BaseURL is the fleetd root, e.g. "http://127.0.0.1:8660".
	BaseURL string
	// HTTP defaults to http.DefaultClient.
	HTTP *http.Client
}

// NewClient returns a client for the coordinator at base.
func NewClient(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

func (cl *Client) httpClient() *http.Client {
	if cl.HTTP != nil {
		return cl.HTTP
	}
	return http.DefaultClient
}

// exchange POSTs a frame and decodes the response frame.
func (cl *Client) exchange(path string, f *Frame) (*Frame, error) {
	body, err := EncodeFrame(f)
	if err != nil {
		return nil, err
	}
	resp, err := cl.httpClient().Post(cl.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("fleet: %s: reading response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	return DecodeFrame(data)
}

// Lease asks for work and reports lease's per-item outcomes (lease 0
// and no results when there is nothing to report). The response is a
// lease-grant, idle, drained, or — when the report is refused — error
// frame.
func (cl *Client) Lease(worker string, lease int64, results []Result) (*Frame, error) {
	return cl.exchange("/lease", &Frame{Type: FrameLeaseRequest, Worker: worker, Lease: lease, Results: results})
}

// Heartbeat extends a lease; an error frame means the lease is gone and
// the chunk should be abandoned. trace echoes the grant's trace context
// (empty for untraced runs) so the lease's frames share one trace.
func (cl *Client) Heartbeat(worker string, lease int64, trace string) (*Frame, error) {
	return cl.exchange("/heartbeat", &Frame{Type: FrameHeartbeat, Worker: worker, Lease: lease, Trace: trace})
}

// Config fetches the coordinator's RunConfig.
func (cl *Client) Config() (RunConfig, error) {
	var rc RunConfig
	err := cl.getJSON("/config", &rc)
	return rc, err
}

// Status fetches the coordinator's Status.
func (cl *Client) Status() (Status, error) {
	var st Status
	err := cl.getJSON("/status", &st)
	return st, err
}

func (cl *Client) getJSON(path string, v any) error {
	resp, err := cl.httpClient().Get(cl.BaseURL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("fleet: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	return nil
}
