package pack

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// line fabricates a distinct wire-format-shaped record.
func line(i int) []byte {
	return []byte(fmt.Sprintf(`{"s":"https://site%d.example/","d":%d}`+"\n", i%5, i%3))
}

func buildPack(t *testing.T, dir string, n int, base Base) *Pack {
	t.Helper()
	b, err := NewBuilder(filepath.Join(dir, "p.pack"), base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		meta := RecordMeta{
			Day:    int32(i % 3),
			Failed: i%7 == 0,
			Domain: fmt.Sprintf("site%d.example", i%5),
			Hosts:  []string{fmt.Sprintf("cmp%d.example", i%2), "static.example"},
		}
		if err := b.Add(line(i), meta); err != nil {
			t.Fatal(err)
		}
	}
	p, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestHashMatchesStdlib pins the resumable FNV-64a to hash/fnv.
func TestHashMatchesStdlib(t *testing.T) {
	data := []byte("the quick brown fox\njumped\n")
	want := fnv.New64a()
	want.Write(data)
	if got := HashUpdate(HashOffset, data); got != want.Sum64() {
		t.Fatalf("HashUpdate = %016x, stdlib = %016x", got, want.Sum64())
	}
	// Resumability: split the input anywhere.
	h := HashUpdate(HashOffset, data[:11])
	h = HashUpdate(h, data[11:])
	if h != want.Sum64() {
		t.Fatalf("split HashUpdate = %016x, stdlib = %016x", h, want.Sum64())
	}
	hr, err := HashReader(HashOffset, bytes.NewReader(data))
	if err != nil || hr != want.Sum64() {
		t.Fatalf("HashReader = %016x err=%v, want %016x", hr, err, want.Sum64())
	}
	if HashUpdate(HashOffset, nil) != HashOffset {
		t.Fatal("hash of no bytes must be the offset basis")
	}
	rt, err := ParseHash(HashHex(h))
	if err != nil || rt != h {
		t.Fatalf("ParseHash(HashHex) roundtrip: %016x err=%v", rt, err)
	}
}

func TestBuildOpenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	const n = 40
	p := buildPack(t, dir, n, ZeroBase)

	var want bytes.Buffer
	for i := 0; i < n; i++ {
		want.Write(line(i))
	}
	s := p.Summary
	if s.Records != n || s.DataBytes != int64(want.Len()) {
		t.Fatalf("summary records/bytes = %d/%d, want %d/%d", s.Records, s.DataBytes, n, want.Len())
	}
	if s.BaseHash != HashHex(HashOffset) {
		t.Fatalf("base hash = %s", s.BaseHash)
	}
	if s.Hash != HashHex(HashUpdate(HashOffset, want.Bytes())) {
		t.Fatalf("end hash = %s", s.Hash)
	}
	if s.MinDay != 0 || s.MaxDay != 2 {
		t.Fatalf("day range = [%d,%d]", s.MinDay, s.MaxDay)
	}
	if s.DomainKeys != 5 || s.HostKeys != 3 || s.HostPostings != 2*n {
		t.Fatalf("key counts = %d domains, %d hosts, %d postings", s.DomainKeys, s.HostKeys, s.HostPostings)
	}

	// Data section is the exact concatenation.
	var got bytes.Buffer
	if _, err := io.Copy(&got, p.DataReader(0, s.DataBytes)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("data section differs from concatenated input")
	}

	// Per-record reads reproduce each line; rectab metadata matches.
	recs, err := p.Recs()
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 0; i < n; i++ {
		b, err := p.ReadRecord(recs, i, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, line(i)) {
			t.Fatalf("record %d bytes differ", i)
		}
		if recs[i].Day != int32(i%3) || recs[i].Failed != (i%7 == 0) {
			t.Fatalf("record %d meta = %+v", i, recs[i])
		}
	}

	// Posting lists point at the right records.
	for d := 0; d < 5; d++ {
		idxs, err := p.Domain(fmt.Sprintf("site%d.example", d))
		if err != nil {
			t.Fatal(err)
		}
		if len(idxs) != n/5 {
			t.Fatalf("domain site%d has %d postings", d, len(idxs))
		}
		for _, ix := range idxs {
			if int(ix)%5 != d {
				t.Fatalf("domain site%d posting %d wrong", d, ix)
			}
		}
	}
	static, err := p.Host("static.example")
	if err != nil || len(static) != n {
		t.Fatalf("static.example postings = %d err=%v", len(static), err)
	}
	if none, _ := p.Domain("absent.example"); none != nil {
		t.Fatal("absent domain should have no postings")
	}
}

// TestPrefixHashChain checks every stored running hash equals a
// from-scratch FNV over the logical prefix, across a nonzero base.
func TestPrefixHashChain(t *testing.T) {
	dir := t.TempDir()
	baseData := []byte("earlier-pack-bytes\n")
	base := Base{Records: 3, Bytes: int64(len(baseData)), Hash: HashUpdate(HashOffset, baseData)}
	const n = 9
	p := buildPack(t, dir, n, base)

	stream := append([]byte(nil), baseData...)
	for i := 0; i < n; i++ {
		stream = append(stream, line(i)...)
		h, nbytes, err := p.PrefixHash(int64(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		if want := HashUpdate(HashOffset, stream); h != want {
			t.Fatalf("prefix %d hash = %016x, want %016x", i+1, h, want)
		}
		if want := int64(len(stream)) - base.Bytes; nbytes != want {
			t.Fatalf("prefix %d bytes = %d, want %d", i+1, nbytes, want)
		}
	}
	if _, _, err := p.PrefixHash(0); err == nil {
		t.Fatal("prefix 0 inside a pack must error (callers answer it from base state)")
	}
	if _, _, err := p.PrefixHash(n + 1); err == nil {
		t.Fatal("prefix past the pack must error")
	}
	if p.Summary.BaseRecords != 3 || p.Summary.BaseBytes != base.Bytes || p.Summary.BaseHash != HashHex(base.Hash) {
		t.Fatalf("base chain fields = %+v", p.Summary)
	}
}

func TestOpenRejectsTornAndForeign(t *testing.T) {
	dir := t.TempDir()
	p := buildPack(t, dir, 12, ZeroBase)
	path := p.Path

	cases := map[string]func(b []byte) []byte{
		"truncated-mid-footer": func(b []byte) []byte { return b[:len(b)-trailerLen-5] },
		"truncated-short":      func(b []byte) []byte { return b[:10] },
		"flipped-summary-byte": func(b []byte) []byte {
			b[len(b)-trailerLen-3] ^= 0xff
			return b
		},
		"bad-magic": func(b []byte) []byte {
			copy(b[len(b)-trailerLen:], "NOTAPACK")
			return b
		},
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			bad := filepath.Join(dir, name+".pack")
			if err := os.WriteFile(bad, corrupt(append([]byte(nil), orig...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(bad); !errors.Is(err, ErrBadPack) {
				t.Fatalf("Open(%s) = %v, want ErrBadPack", name, err)
			}
		})
	}
}

func TestCommitRejectsEmpty(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBuilder(filepath.Join(dir, "e.pack"), ZeroBase)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(); err == nil {
		t.Fatal("empty Commit must fail")
	}
	if _, err := os.Stat(filepath.Join(dir, "e.pack.tmp")); !os.IsNotExist(err) {
		t.Fatal("aborted temp file left behind")
	}
}

func TestAbortRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBuilder(filepath.Join(dir, "a.pack"), ZeroBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(line(0), RecordMeta{Domain: "site0.example"}); err != nil {
		t.Fatal(err)
	}
	b.Abort()
	left, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(left) != 0 {
		t.Fatalf("abort left %v", left)
	}
}

func TestCommitRejectsBadPostings(t *testing.T) {
	for name, hosts := range map[string]map[string][]int32{
		"past the records": {"cdn.example": {0, 2}},
		"out of order":     {"cdn.example": {1, 0}},
		"repeated":         {"cdn.example": {1, 1}},
	} {
		dir := t.TempDir()
		b, err := NewBuilder(filepath.Join(dir, "p.pack"), ZeroBase)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := b.Add(line(i), RecordMeta{}); err != nil {
				t.Fatal(err)
			}
		}
		b.SetPostings(map[string][]int32{"site0.example": {0, 1}}, hosts)
		if _, err := b.Commit(); err == nil {
			t.Fatalf("%s: Commit accepted host postings %v over 2 records", name, hosts)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
			t.Fatalf("%s: refused commit left %v", name, left)
		}
	}
}
