package analytics

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/durable"
)

// Checkpoint files make analyzed restarts cheap: the engine state is
// written as `ckpt-<cursor>.ckpt` with a self-verifying header, so a
// restart resumes from the last durable cursor and re-streams only
// the suffix instead of replaying the whole store.
//
// File format (one header line + payload):
//
//	analytics-checkpoint v1 <fnv64a-hex> <payload-len>\n
//	<payload bytes>
//
// The hash covers exactly the payload. A file whose payload is torn
// (short, or hash mismatch — a crash mid-write) fails verification
// and is skipped on open; writes go through durable.WriteFile so a
// crash never damages a previously durable checkpoint.

const ckptMagic = "analytics-checkpoint v1"

func ckptName(cursor int64) string { return fmt.Sprintf("ckpt-%016d.ckpt", cursor) }

// parseCkptName extracts the cursor from a checkpoint file name.
func parseCkptName(name string) (int64, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ckpt"), 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func payloadHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// WriteCheckpoint durably writes one checkpoint at the cursor,
// pruning older checkpoints down to the two newest (the newest plus
// one fallback). Returns the final file path.
func WriteCheckpoint(dir string, cursor int64, payload []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	final := filepath.Join(dir, ckptName(cursor))
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %016x %d\n", ckptMagic, payloadHash(payload), len(payload))
	buf.Write(payload)
	err := durable.WriteFile(final, func(w io.Writer) error {
		_, err := w.Write(buf.Bytes())
		return err
	})
	if err != nil {
		return "", err
	}
	pruneCheckpoints(dir, 2)
	return final, nil
}

// pruneCheckpoints removes all but the keep newest checkpoint files.
func pruneCheckpoints(dir string, keep int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var cursors []int64
	for _, ent := range entries {
		if n, ok := parseCkptName(ent.Name()); ok {
			cursors = append(cursors, n)
		}
	}
	if len(cursors) <= keep {
		return
	}
	sort.Slice(cursors, func(i, j int) bool { return cursors[i] > cursors[j] })
	for _, n := range cursors[keep:] {
		os.Remove(filepath.Join(dir, ckptName(n)))
	}
}

// readCheckpoint verifies and returns one checkpoint file's payload.
func readCheckpoint(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := verifyCheckpoint(b)
	if err != nil {
		return nil, fmt.Errorf("analytics: checkpoint %s: %w", path, err)
	}
	return payload, nil
}

// verifyCheckpoint checks a checkpoint file's bytes against its own
// header: payload length and hash must both agree.
func verifyCheckpoint(b []byte) ([]byte, error) {
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return nil, errors.New("no header line")
	}
	var wantHash uint64
	var wantLen int
	header := string(b[:nl])
	if _, err := fmt.Sscanf(header, ckptMagic+" %x %d", &wantHash, &wantLen); err != nil {
		return nil, fmt.Errorf("bad header %q", header)
	}
	payload := b[nl+1:]
	if len(payload) != wantLen {
		return nil, fmt.Errorf("torn payload (%d of %d bytes)", len(payload), wantLen)
	}
	if payloadHash(payload) != wantHash {
		return nil, errors.New("payload hash mismatch")
	}
	return payload, nil
}

// LoadLatestCheckpoint opens the highest-cursor valid checkpoint in
// dir, skipping torn or corrupt files. Returns cursor -1 when no
// usable checkpoint exists (including when dir is absent).
func LoadLatestCheckpoint(dir string) (cursor int64, payload []byte, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return -1, nil, nil
		}
		return -1, nil, err
	}
	var cursors []int64
	for _, ent := range entries {
		if n, ok := parseCkptName(ent.Name()); ok {
			cursors = append(cursors, n)
		}
	}
	sort.Slice(cursors, func(i, j int) bool { return cursors[i] > cursors[j] })
	for _, n := range cursors {
		b, rerr := readCheckpoint(filepath.Join(dir, ckptName(n)))
		if rerr != nil {
			// Torn or corrupt — fall back to the next-newest.
			continue
		}
		return n, b, nil
	}
	return -1, nil, nil
}
