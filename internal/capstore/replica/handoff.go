package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/capstore"
	"repro/internal/durable"
)

// The durable hinted-handoff log mirrors a down node's delivery queue
// to disk, one JSON hint per line in a durable.Log, so hints survive a
// proxy restart. Append is not fsynced per hint (hints are an
// optimization — anti-entropy repair reconciles any loss); a torn
// final hint is truncated on open, and a complete line that is not a
// hint fails NewWriter rather than silently dropping every hint
// behind it.

// hint is the wire form of one queued sub-batch.
type hint struct {
	// Seq is the commit's ordered-mode position (-1 for unordered).
	Seq int64 `json:"seq"`
	// Shards are the distinct segments the sub-batch touches.
	Shards []int `json:"shards"`
	// Caps are the records in canonical order, each a capturedb
	// wire-format line without its trailing newline (a wire line is
	// itself JSON, so it embeds verbatim).
	Caps []json.RawMessage `json:"caps"`
}

// item reconstructs the in-memory delivery item, each line reloaded
// through the key scanner as an /ingest line is. Loaded hints carry no
// commitWait: their pushers belong to a previous process, so there is
// no quorum left to credit.
func (h hint) item() (item, error) {
	var data []byte
	for _, raw := range h.Caps {
		data = append(append(data, raw...), '\n')
	}
	var b capstore.Batch
	if n, err := b.AddLines(data); err != nil {
		return item{}, fmt.Errorf("hint record %d: %w", n, err)
	}
	it := item{lines: b.Lines, shards: h.Shards}
	for _, k := range b.Keys {
		it.domains = append(it.domains, k.Domain)
	}
	return it, nil
}

// handoffLog is one node's durable hint log.
type handoffLog struct {
	log *durable.Log
}

// handoffPath names the node's log file.
func handoffPath(dir, node string) string {
	return filepath.Join(dir, "handoff-"+node+".ndjson")
}

// openHandoffLog opens (creating if absent) the node's hint log,
// repairs any torn tail, and returns the surviving hints in append
// order.
func openHandoffLog(dir, nodeName string) (*handoffLog, []hint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	var hints []hint
	log, err := durable.OpenLog(handoffPath(dir, nodeName), func(line []byte) error {
		var h hint
		if err := json.Unmarshal(line, &h); err != nil {
			return err
		}
		hints = append(hints, h)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("replica: handoff log: %w", err)
	}
	return &handoffLog{log: log}, hints, nil
}

// Append records one queued sub-batch.
func (l *handoffLog) Append(it item) error {
	h := hint{Shards: it.shards, Caps: make([]json.RawMessage, 0, len(it.lines))}
	if it.wait != nil {
		h.Seq = it.wait.seq
	} else {
		h.Seq = -1
	}
	for _, line := range it.lines {
		h.Caps = append(h.Caps, json.RawMessage(bytes.TrimSuffix(line, []byte("\n"))))
	}
	line, err := json.Marshal(h)
	if err != nil {
		return err
	}
	return l.log.Append(line, false)
}

// Reset drops all hints (delivered, or superseded by repair).
func (l *handoffLog) Reset() error { return l.log.Reset() }

func (l *handoffLog) Close() error { return l.log.Close() }
