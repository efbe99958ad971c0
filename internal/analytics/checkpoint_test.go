package analytics

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if cur, _, err := LoadLatestCheckpoint(dir); err != nil || cur != -1 {
		t.Fatalf("empty dir: cursor %d, err %v; want -1, nil", cur, err)
	}
	if cur, _, err := LoadLatestCheckpoint(filepath.Join(dir, "missing")); err != nil || cur != -1 {
		t.Fatalf("missing dir: cursor %d, err %v; want -1, nil", cur, err)
	}

	payload := []byte(`{"view":"state"}`)
	if _, err := WriteCheckpoint(dir, 42, payload); err != nil {
		t.Fatal(err)
	}
	cur, got, err := LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cur != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("got cursor %d payload %q", cur, got)
	}

	// The newest cursor wins, and old checkpoints are pruned to two.
	for _, c := range []int64{100, 250, 999} {
		if _, err := WriteCheckpoint(dir, c, payload); err != nil {
			t.Fatal(err)
		}
	}
	if cur, _, _ = LoadLatestCheckpoint(dir); cur != 999 {
		t.Fatalf("latest cursor = %d, want 999", cur)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 2 {
		t.Fatalf("%d checkpoint files on disk, want ≤ 2", len(entries))
	}
}

// TestCheckpointTornTailFallsBack crashes mid-write, by hand: the
// newest checkpoint file is truncated (torn) or corrupted, and load
// must fall back to the previous valid one.
func TestCheckpointTornTailFallsBack(t *testing.T) {
	dir := t.TempDir()
	good := []byte(`{"cursor":7}`)
	if _, err := WriteCheckpoint(dir, 7, good); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCheckpoint(dir, 9, []byte(`{"cursor":9}`)); err != nil {
		t.Fatal(err)
	}
	// Tear the newest file: keep the header, drop half the payload.
	name := filepath.Join(dir, ckptName(9))
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, b[:len(b)-6], 0o644); err != nil {
		t.Fatal(err)
	}
	cur, payload, err := LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cur != 7 || !bytes.Equal(payload, good) {
		t.Fatalf("got cursor %d payload %q, want the older intact checkpoint", cur, payload)
	}

	// Corrupt (bit-flipped) payload with intact length: hash rejects
	// it. Fresh dir so pruning cannot evict the fallback checkpoint.
	dir = t.TempDir()
	if _, err := WriteCheckpoint(dir, 7, good); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCheckpoint(dir, 11, []byte(`{"cursor":11}`)); err != nil {
		t.Fatal(err)
	}
	name = filepath.Join(dir, ckptName(11))
	if b, err = os.ReadFile(name); err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 0x40
	if err := os.WriteFile(name, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if cur, payload, err = LoadLatestCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	if cur != 7 || !bytes.Equal(payload, good) {
		t.Fatalf("bit flip survived: cursor %d payload %q", cur, payload)
	}
}

// FuzzReadCheckpoint: any payload round-trips through the file format,
// and arbitrary file bytes are accepted only when the header's length
// and hash both agree with the payload — an accepted file stops
// verifying as soon as its payload is cut, extended, or altered.
func FuzzReadCheckpoint(f *testing.F) {
	file := func(payload []byte) []byte {
		return []byte(fmt.Sprintf("%s %016x %d\n%s", ckptMagic, payloadHash(payload), len(payload), payload))
	}
	good := file([]byte(`{"cursor":7}`))
	f.Add(good)
	f.Add(good[:len(good)-6])
	f.Add([]byte(ckptMagic + " 0000000000000000 3\nabc"))
	f.Add([]byte("analytics-checkpoint v2 0 0\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := verifyCheckpoint(file(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("payload %q did not round-trip: %q, %v", data, got, err)
		}
		payload, err := verifyCheckpoint(data)
		if err != nil {
			return
		}
		if !bytes.HasSuffix(data, payload) || data[len(data)-len(payload)-1] != '\n' {
			t.Fatalf("accepted %q with payload %q: not the bytes after the header", data, payload)
		}
		damaged := [][]byte{append(slices.Clone(data), 'x')}
		if len(payload) > 0 {
			flipped := slices.Clone(data)
			flipped[len(flipped)-1] ^= 0x01
			damaged = append(damaged, data[:len(data)-1], flipped)
		}
		for _, d := range damaged {
			if _, err := verifyCheckpoint(d); err == nil {
				t.Fatalf("accepted %q and also its damaged form %q", data, d)
			}
		}
	})
}
