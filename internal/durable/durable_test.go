package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// faultFS runs every call against the real filesystem until call
// number at, then injects the configured fault:
//
//	fail   the call returns an error without being applied; the
//	       process lives on and runs its error handling
//	crash  the process dies before the call: neither it nor anything
//	       after it is applied
//	torn   like crash, but the dying call — a write — lands its first
//	       half
type faultFS struct {
	mode  string
	at    int // 1-based; 0 never faults
	calls int
	ops   []string // what each call was
	dead  bool
}

var errInjected = errors.New("injected fault")

// step accounts one filesystem call and reports whether it may run.
func (fs *faultFS) step(op string) error {
	fs.calls++
	fs.ops = append(fs.ops, op)
	if fs.dead {
		return errInjected
	}
	if fs.calls == fs.at {
		fs.dead = fs.mode != "fail"
		return errInjected
	}
	return nil
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	op := "open " + filepath.Base(name)
	if flag == os.O_RDONLY {
		op = "open dir" // only directories are opened read-only, to be fsynced
	}
	if err := fs.step(op); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, f: f}, nil
}

func (fs *faultFS) Stat(name string) (os.FileInfo, error) {
	if err := fs.step("stat"); err != nil {
		return nil, err
	}
	return os.Stat(name)
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	if err := fs.step("rename"); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func (fs *faultFS) Remove(name string) error {
	if err := fs.step("remove"); err != nil {
		return err
	}
	return os.Remove(name)
}

type faultFile struct {
	fs *faultFS
	f  *os.File
}

func (f *faultFile) Read(p []byte) (int, error) {
	if err := f.fs.step("read"); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

func (f *faultFile) Write(p []byte) (int, error) {
	wasDead := f.fs.dead
	if err := f.fs.step("write"); err != nil {
		if f.fs.mode == "torn" && !wasDead {
			n, _ := f.f.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return f.f.Write(p)
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.step("truncate"); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *faultFile) Sync() error {
	if err := f.fs.step("sync"); err != nil {
		return err
	}
	return f.f.Sync()
}

// Close always releases the descriptor (a dead process's are closed by
// the kernel, and closing changes nothing on disk) but still counts as
// a call that can report failure.
func (f *faultFile) Close() error {
	err := f.fs.step("close")
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// matrix runs scenario once unfaulted to count its filesystem calls,
// then once per (call, mode), each in a fresh directory, handing the
// outcome to verify. It returns the number of injection points.
func matrix(t *testing.T, scenario func(fs fsys, dir string) error, verify func(t *testing.T, fs *faultFS, dir string, err error)) int {
	t.Helper()
	clean := &faultFS{}
	dir := t.TempDir()
	if err := scenario(clean, dir); err != nil {
		t.Fatalf("unfaulted run: %v", err)
	}
	verify(t, clean, dir, nil)
	points := 0
	for at := 1; at <= clean.calls; at++ {
		op := clean.ops[at-1]
		for _, mode := range []string{"fail", "crash", "torn"} {
			if mode == "torn" && op != "write" {
				continue
			}
			points++
			fs := &faultFS{mode: mode, at: at}
			dir := t.TempDir()
			err := scenario(fs, dir)
			t.Run(fmt.Sprintf("%s@%d-%s", mode, at, strings.ReplaceAll(op, " ", "-")), func(t *testing.T) {
				verify(t, fs, dir, err)
			})
		}
	}
	return points
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		// Two writes, so a fault can land between them.
		if _, err := io.WriteString(w, s[:len(s)/2]); err != nil {
			return err
		}
		_, err := io.WriteString(w, s[len(s)/2:])
		return err
	}
}

// TestFileFaultMatrix: whichever filesystem call of a commit fails or
// is the process's last, the path holds the old content or the new,
// never a mixture; a reported success means new; and no temp file
// outlives the next commit.
func TestFileFaultMatrix(t *testing.T) {
	const oldContent, newContent, next = "old content\n", "the new content, longer\n", "next\n"
	for _, existing := range []bool{true, false} {
		t.Run(fmt.Sprintf("existing=%v", existing), func(t *testing.T) {
			scenario := func(fs fsys, dir string) error {
				path := filepath.Join(dir, "state")
				if existing {
					if err := WriteFile(path, writeString(oldContent)); err != nil {
						t.Fatal(err)
					}
				}
				return writeFile(fs, path, writeString(newContent))
			}
			verify := func(t *testing.T, fs *faultFS, dir string, err error) {
				path := filepath.Join(dir, "state")
				got, rerr := os.ReadFile(path)
				switch {
				case rerr == nil && string(got) == newContent:
				case err == nil:
					t.Fatalf("commit reported success but path holds %q (read error %v)", got, rerr)
				case existing && rerr == nil && string(got) == oldContent:
				case !existing && os.IsNotExist(rerr):
				default:
					t.Fatalf("path is neither old nor new: %q (read error %v)", got, rerr)
				}
				_, tmpErr := os.Stat(path + ".tmp")
				if fs.mode == "fail" && tmpErr == nil {
					t.Fatalf("a failed commit left %s.tmp behind", path)
				}
				if err := WriteFile(path, writeString(next)); err != nil {
					t.Fatal(err)
				}
				if got, _ := os.ReadFile(path); string(got) != next {
					t.Fatalf("commit after the fault produced %q", got)
				}
				if _, err := os.Stat(path + ".tmp"); err == nil {
					t.Fatalf("%s.tmp outlived the next commit", path)
				}
			}
			t.Logf("covered %d injection points", matrix(t, scenario, verify))
		})
	}
}

// TestFileAbort: an aborted replacement leaves the old file and no
// temp file, and Abort after Commit does not disturb the new one.
func TestFileAbort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := WriteFile(path, writeString("old")); err != nil {
		t.Fatal(err)
	}
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "half-built")
	f.Abort()
	f.Abort()
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("after Abort path holds %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); err == nil {
		t.Fatal("Abort left the temp file")
	}
	if err := WriteFile(path, func(io.Writer) error { return errInjected }); err != errInjected {
		t.Fatalf("WriteFile returned %v, want the writer's error", err)
	}
	if f, err = Create(path); err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "new")
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	f.Abort()
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("after Commit+Abort path holds %q", got)
	}
}

// readLog opens path with the real filesystem and returns its records.
func readLog(t *testing.T, path string) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := OpenLog(path, func(line []byte) error {
		if !json.Valid(line) {
			return errors.New("not JSON")
		}
		got = append(got, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("reopening after the fault: %v", err)
	}
	return l, got
}

// TestLogFaultMatrix: whichever filesystem call of an open, append or
// reset fails or is the process's last, the reopened log holds exactly
// the acknowledged records — plus, at most, the one record whose
// Append had not returned — and stays appendable.
func TestLogFaultMatrix(t *testing.T) {
	for _, existing := range []bool{false, true} {
		t.Run(fmt.Sprintf("existing=%v", existing), func(t *testing.T) {
			// What the faulted run acknowledged, and what it was doing
			// when it stopped; rebuilt by every scenario run.
			var acked []string
			var inflight string // a record being appended, or "reset"
			scenario := func(fs fsys, dir string) error {
				path := filepath.Join(dir, "log")
				acked, inflight = nil, ""
				if existing {
					// Two records and the torn start of a third, as a
					// crash mid-append leaves them.
					if err := os.WriteFile(path, []byte("\"p0\"\n\"p1\"\n\"to"), 0o644); err != nil {
						t.Fatal(err)
					}
					acked = []string{`"p0"`, `"p1"`}
				}
				var seen []string
				l, err := openLog(fs, path, func(line []byte) error {
					seen = append(seen, string(line))
					return nil
				})
				if err != nil {
					return err
				}
				defer l.Close()
				if !slices.Equal(seen, acked) {
					t.Fatalf("open decoded %q, want %q", seen, acked)
				}
				appendRec := func(rec string, sync bool) error {
					inflight = rec
					if err := l.Append([]byte(rec), sync); err != nil {
						return err
					}
					acked, inflight = append(acked, rec), ""
					return nil
				}
				if err := appendRec(`"a"`, true); err != nil {
					return err
				}
				if err := appendRec(`"b"`, false); err != nil {
					return err
				}
				inflight = "reset"
				if err := l.Reset(); err != nil {
					return err
				}
				acked, inflight = nil, ""
				if err := appendRec(`{"c":1}`, true); err != nil {
					return err
				}
				return appendRec(`"d"`, false)
			}
			verify := func(t *testing.T, fs *faultFS, dir string, err error) {
				path := filepath.Join(dir, "log")
				l, got := readLog(t, path)
				ok := slices.Equal(got, acked)
				switch {
				case inflight == "reset":
					ok = ok || len(got) == 0
				case inflight != "":
					ok = ok || slices.Equal(got, append(slices.Clone(acked), inflight))
				}
				if !ok {
					t.Fatalf("reopened log holds %q; acknowledged %q, in flight %q (run error %v)", got, acked, inflight, err)
				}
				if err := l.Append([]byte(`"z"`), true); err != nil {
					t.Fatal(err)
				}
				l.Close()
				l, again := readLog(t, path)
				l.Close()
				if want := append(got, `"z"`); !slices.Equal(again, want) {
					t.Fatalf("after one more append the log holds %q, want %q", again, want)
				}
			}
			t.Logf("covered %d injection points", matrix(t, scenario, verify))
		})
	}
}

// TestLogCorruptLine: a terminated line that does not decode is
// corruption, not a torn append — the open fails naming the line and
// the file is left exactly as found.
func TestLogCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	content := []byte("1\n2\nnot json\n4\n")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenLog(path, func(line []byte) error {
		if !json.Valid(line) {
			return errors.New("not JSON")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("OpenLog error = %v, want one naming %s line 3", err, path)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, content) {
		t.Fatalf("corrupt log was modified: %q", after)
	}
}

// TestLogRefusesEmbeddedNewline: a record that would break the line
// framing is refused before anything is written.
func TestLogRefusesEmbeddedNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, _ := readLog(t, path)
	defer l.Close()
	if err := l.Append([]byte("1\n2"), true); err == nil {
		t.Fatal("Append accepted a record containing a newline")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
		t.Fatalf("refused record reached the file: size %d, err %v", fi.Size(), err)
	}
}

// memFS is a filesystem of one existing in-memory file: enough of the
// seam to fuzz openLog at memory speed.
type memFS struct {
	data []byte
	off  int
}

func (m *memFS) OpenFile(string, int, os.FileMode) (file, error) { m.off = 0; return m, nil }
func (m *memFS) Stat(string) (os.FileInfo, error)                { return nil, nil }
func (m *memFS) Rename(string, string) error                     { return nil }
func (m *memFS) Remove(string) error                             { return nil }
func (m *memFS) Write(p []byte) (int, error)                     { m.data = append(m.data, p...); return len(p), nil }
func (m *memFS) Truncate(size int64) error                       { m.data = m.data[:size]; return nil }
func (m *memFS) Sync() error                                     { return nil }
func (m *memFS) Close() error                                    { return nil }

func (m *memFS) Read(p []byte) (int, error) {
	if m.off == len(m.data) {
		return 0, io.EOF
	}
	n := copy(p, m.data[m.off:])
	m.off += n
	return n, nil
}

// FuzzLogScan: for any bytes in the file, opening a log never panics;
// either it fails and leaves the file untouched, or it cuts exactly
// the unterminated tail, and reopening the result changes nothing.
func FuzzLogScan(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"k\":\"done\",\"c\":0}\n{\"k\":\"dead\",\"c\":1}\n"))
	f.Add([]byte("1\n2\n{\"seq\":9,\"shards\":[1],\"caps\":[{\"tor"))
	f.Add([]byte("1\nnot json\n3\n"))
	f.Add([]byte("\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := &memFS{data: slices.Clone(data)}
		open := func() ([]string, error) {
			var lines []string
			_, err := openLog(fs, "log", func(line []byte) error {
				if !json.Valid(line) {
					return errors.New("not JSON")
				}
				lines = append(lines, string(line))
				return nil
			})
			return lines, err
		}
		lines, err := open()
		after := slices.Clone(fs.data)
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("failed open modified the file: %q → %q", data, after)
			}
			return
		}
		if !bytes.HasPrefix(data, after) || bytes.IndexByte(data[len(after):], '\n') >= 0 {
			t.Fatalf("open cut %q to %q: not exactly the unterminated tail", data, after)
		}
		if len(after) > 0 && after[len(after)-1] != '\n' {
			t.Fatalf("repaired log %q does not end on a record boundary", after)
		}
		if n := bytes.Count(after, []byte("\n")); n != len(lines) {
			t.Fatalf("decoded %d records from %d lines", len(lines), n)
		}
		lines2, err := open()
		if err != nil || !slices.Equal(lines2, lines) {
			t.Fatalf("rescan of the valid prefix: %q, %v; want %q", lines2, err, lines)
		}
		if !bytes.Equal(fs.data, after) {
			t.Fatalf("second open modified the file: %q → %q", after, fs.data)
		}
	})
}
