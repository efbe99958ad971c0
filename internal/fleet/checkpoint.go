package fleet

import (
	"encoding/json"
	"fmt"

	"repro/internal/durable"
)

// The checkpoint log is the coordinator's crash-safe progress record:
// one JSON line per finally-accounted chunk (done or dead) in a
// durable.Log, appended and fsynced before the outcome is
// acknowledged. A restarted coordinator replays the log against the
// deterministically reconstructed work list — the (chunk index,
// first, n) triple is validated on replay, so a log from a different
// seed or window fails loudly instead of silently mis-attributing
// progress.

const (
	ckptDone = "done"
	ckptDead = "dead"
)

// ckptRecord is one finally-accounted chunk.
type ckptRecord struct {
	Kind     string `json:"k"`
	Chunk    int    `json:"c"`
	First    int64  `json:"f"`
	N        int    `json:"n"`
	Captures int64  `json:"cap,omitempty"`
	Dead     int64  `json:"dead,omitempty"`
}

// openCheckpoint opens (or creates) the log at path and returns its
// records in append order.
func openCheckpoint(path string) (*durable.Log, []ckptRecord, error) {
	var recs []ckptRecord
	log, err := durable.OpenLog(path, func(line []byte) error {
		var r ckptRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: opening checkpoint: %w", err)
	}
	return log, recs, nil
}

// appendCheckpoint durably records one chunk outcome: written, then
// fsynced, before the coordinator acknowledges the completion.
func appendCheckpoint(log *durable.Log, r ckptRecord) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := log.Append(data, true); err != nil {
		return fmt.Errorf("fleet: checkpoint append: %w", err)
	}
	return nil
}
