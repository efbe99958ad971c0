// Package fleet distributes a crawl window across worker nodes without
// giving up byte-reproducibility. The paper's platform was a fleet of
// Chrome crawlers in US and EU data centers feeding a central capture
// database (Section 3.4, Figure 3); this package reproduces that shape:
// a coordinator chunks the feed-ordered work list into contiguous
// leases, hands them to workers over HTTP, reassigns leases whose
// heartbeats stop, checkpoints progress so a restart never re-issues
// completed work, and accounts for every share exactly once. Workers
// crawl through the same StreamPlatform retry path as a single-process
// run and push results to capd's ordered ingest API, which commits
// batches at their canonical feed positions — so the fleet's capstore
// is byte-identical to a single-process run, for any worker count and
// through worker crashes. The determinism argument is spelled out in
// DESIGN.md §9.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// FrameType tags a wire frame. Every fleet HTTP exchange is one frame
// in the request body and one frame in the response.
type FrameType string

const (
	// FrameLeaseRequest asks the coordinator for work
	// (worker → POST /lease) and reports the outcome of the worker's
	// previous lease, if it has one to report.
	FrameLeaseRequest FrameType = "lease-request"
	// FrameLeaseGrant carries a contiguous chunk of work items
	// (coordinator → worker).
	FrameLeaseGrant FrameType = "lease-grant"
	// FrameIdle tells the worker no chunk is currently eligible;
	// RetryMS hints when to ask again.
	FrameIdle FrameType = "idle"
	// FrameDrained tells the worker the window is fully accounted for
	// and it can exit.
	FrameDrained FrameType = "drained"
	// FrameHeartbeat extends a lease (worker → POST /heartbeat).
	FrameHeartbeat FrameType = "heartbeat"
	// FrameAck acknowledges a heartbeat (and, in process, a report
	// Coordinator.Complete accounted).
	FrameAck FrameType = "ack"
	// FrameError reports a protocol-level failure (unknown lease,
	// malformed frame); Err carries the reason.
	FrameError FrameType = "error"
)

// WorkItem is one share at its position in the fleet's total order.
// Seq is the item's index in the feed-ordered work list; the ordered
// ingest API commits captures by these positions, which is what pins
// the distributed store to the single-process byte layout.
type WorkItem struct {
	Seq    int64       `json:"q"`
	URL    string      `json:"u"`
	Domain string      `json:"d"`
	Day    simtime.Day `json:"t"`
}

// Result is one work item's outcome, reported on the lease request
// that follows the lease.
type Result struct {
	Seq int64 `json:"q"`
	// Captured is set when the visit produced a capture record (pushed
	// to capd by the worker before the outcome was reported).
	Captured bool `json:"c,omitempty"`
	// Attempts is how many visit attempts the item consumed.
	Attempts int `json:"a,omitempty"`
	// Reason classifies non-captured outcomes (dead-letter reason).
	Reason string `json:"r,omitempty"`
	// Err preserves the final error text for non-captured outcomes.
	Err string `json:"e,omitempty"`
}

// Frame is the single wire envelope; Type selects which fields are
// meaningful. Short tags keep heartbeat traffic small, mirroring the
// capturedb wire schema.
type Frame struct {
	Type   FrameType `json:"k"`
	Worker string    `json:"w,omitempty"`
	// Lease identifies a grant; echoed on heartbeats, and on the next
	// lease request when that reports the lease's outcome.
	Lease int64 `json:"l,omitempty"`
	// First and N describe the granted range [First, First+N) of the
	// total order; Items lists the shares, in order.
	First int64      `json:"f,omitempty"`
	N     int        `json:"n,omitempty"`
	Items []WorkItem `json:"i,omitempty"`
	// TTLMS is the lease's time-to-live in milliseconds; a lease not
	// heartbeat within it is reassigned.
	TTLMS int64 `json:"ttl,omitempty"`
	// RetryMS hints how long an idle worker should wait before asking
	// again.
	RetryMS int64 `json:"rty,omitempty"`
	// Results carries lease Lease's per-item outcomes on a lease
	// request, present exactly when Lease is set.
	Results []Result `json:"res,omitempty"`
	// Err carries the reason on error frames.
	Err string `json:"e,omitempty"`
	// Trace carries the lease span's context in traceparent form: set
	// by the coordinator on grants (when it runs a tracer), echoed by
	// workers on heartbeats, and adopted as the remote parent of every
	// worker-side span. Optional — an empty string means the exchange
	// is untraced.
	Trace string `json:"tp,omitempty"`
}

// EncodeFrame renders a frame as one JSON line (with trailing newline).
func EncodeFrame(f *Frame) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeFrame parses one frame and validates its per-type invariants.
// Unknown fields are rejected: a frame from a newer protocol revision
// must fail loudly rather than be half-understood.
func DecodeFrame(data []byte) (*Frame, error) {
	var f Frame
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("fleet: decoding frame: %w", err)
	}
	// Exactly one JSON value per frame: trailing non-space bytes mean a
	// framing error, not a second message.
	if dec.More() {
		return nil, fmt.Errorf("fleet: trailing data after frame")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Validate checks the per-type structural invariants.
func (f *Frame) Validate() error {
	switch f.Type {
	case FrameLeaseRequest:
		if f.Worker == "" {
			return fmt.Errorf("fleet: %s frame without worker id", f.Type)
		}
		if f.Lease < 0 || (f.Lease > 0) != (len(f.Results) > 0) {
			return fmt.Errorf("fleet: %s frame with lease %d and %d results (results come with the lease they report)",
				f.Type, f.Lease, len(f.Results))
		}
		for i, r := range f.Results {
			if r.Seq < 0 {
				return fmt.Errorf("fleet: %s frame result %d has seq %d", f.Type, i, r.Seq)
			}
			if i > 0 && r.Seq <= f.Results[i-1].Seq {
				return fmt.Errorf("fleet: %s frame results out of order at %d (%d after %d)",
					f.Type, i, r.Seq, f.Results[i-1].Seq)
			}
			if !r.Captured && r.Reason == "" {
				return fmt.Errorf("fleet: %s frame result %d neither captured nor classified", f.Type, i)
			}
		}
	case FrameLeaseGrant:
		if f.Lease <= 0 {
			return fmt.Errorf("fleet: %s frame with lease id %d", f.Type, f.Lease)
		}
		if f.First < 0 || f.N < 1 {
			return fmt.Errorf("fleet: %s frame with range first=%d n=%d", f.Type, f.First, f.N)
		}
		if len(f.Items) != f.N {
			return fmt.Errorf("fleet: %s frame with %d items for n=%d", f.Type, len(f.Items), f.N)
		}
		if f.TTLMS <= 0 {
			return fmt.Errorf("fleet: %s frame with ttl %dms", f.Type, f.TTLMS)
		}
		for i, it := range f.Items {
			if it.Seq != f.First+int64(i) {
				return fmt.Errorf("fleet: %s frame item %d has seq %d, want %d (ranges are contiguous)",
					f.Type, i, it.Seq, f.First+int64(i))
			}
			if it.URL == "" || it.Domain == "" {
				return fmt.Errorf("fleet: %s frame item %d missing url or domain", f.Type, i)
			}
			if !it.Day.Valid() {
				return fmt.Errorf("fleet: %s frame item %d has invalid day %d", f.Type, i, it.Day)
			}
		}
	case FrameIdle:
		if f.RetryMS < 0 {
			return fmt.Errorf("fleet: %s frame with retry %dms", f.Type, f.RetryMS)
		}
	case FrameDrained, FrameAck:
		// No required fields.
	case FrameHeartbeat:
		if f.Worker == "" || f.Lease <= 0 {
			return fmt.Errorf("fleet: %s frame needs worker and lease (worker=%q lease=%d)", f.Type, f.Worker, f.Lease)
		}
	case FrameError:
		if f.Err == "" {
			return fmt.Errorf("fleet: %s frame without error text", f.Type)
		}
	default:
		return fmt.Errorf("fleet: unknown frame type %q", f.Type)
	}
	if f.Trace != "" {
		if _, err := obs.ParseTraceparent(f.Trace); err != nil {
			return fmt.Errorf("fleet: %s frame trace context: %w", f.Type, err)
		}
	}
	return nil
}
