// Package durable is the one implementation of the two crash-safe file
// shapes the pipeline persists state in (DESIGN.md "Process plumbing"):
//
//   - File: a whole file replaced atomically. Bytes go to path+".tmp";
//     Commit fsyncs the data, closes, renames over path and fsyncs the
//     parent directory, so a crash at any point leaves either the old
//     file or the new one, never a mixture. Used for pack files,
//     segment-tail rewrites and analytics checkpoints.
//   - Log: an append-only file of newline-terminated records. Every
//     Append is a single record+'\n' write, so the only damage a crash
//     can do is an unterminated tail, which OpenLog truncates away. A
//     terminated line that does not decode is not crash damage but
//     corruption: OpenLog fails, naming the line, and leaves the file
//     untouched for inspection. Used for the fleet checkpoint and the
//     hinted-handoff logs.
//
// What is fsynced is the caller's decision, made per call: Commit
// always syncs (a committed file is durable by definition); Append
// syncs only when asked, because the fleet checkpoint acknowledges a
// record as durable while a handoff hint is an optimisation that
// anti-entropy repair covers. A new name is made durable by fsyncing
// its parent directory exactly once, when the name is created.
package durable

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// fsys is every filesystem call this package makes. Production code
// always runs on osFS; the seam exists so the fault-matrix test can
// fail or stop the process at each call in turn.
type fsys interface {
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Stat(name string) (os.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

type file interface {
	io.Reader
	io.Writer
	Truncate(size int64) error
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a non-nil interface holding a nil *os.File
	}
	return f, nil
}
func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }
func (osFS) Rename(oldpath, newpath string) error  { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error              { return os.Remove(name) }

// SyncDir fsyncs a directory. A file's own fsync covers its data
// pages; the name→inode link is a page of the parent directory, so a
// created or renamed file survives a crash only once this returns.
func SyncDir(dir string) error { return syncDir(osFS{}, dir) }

func syncDir(fs fsys, dir string) error {
	d, err := fs.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// File is an atomic replacement of one file, in progress. Not safe for
// concurrent use.
type File struct {
	fs   fsys
	path string
	tmp  file // nil once committed or aborted
}

// Create starts a replacement of path, truncating any path+".tmp" an
// earlier crash left behind. Nothing is visible at path until Commit.
func Create(path string) (*File, error) { return create(osFS{}, path) }

func create(fs fsys, path string) (*File, error) {
	tmp, err := fs.OpenFile(path+".tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, path: path, tmp: tmp}, nil
}

func (f *File) Write(p []byte) (int, error) { return f.tmp.Write(p) }

// Commit makes the written bytes the durable content of path: fsync,
// close, rename, parent-directory fsync. Any failure before the rename
// removes the temp file and leaves path as it was; a failed directory
// fsync is returned too, because the rename may then not survive a
// crash.
func (f *File) Commit() error {
	tmp := f.tmp
	f.tmp = nil
	err := tmp.Sync()
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = f.fs.Rename(f.path+".tmp", f.path)
	}
	if err != nil {
		f.fs.Remove(f.path + ".tmp") //nolint:errcheck // err is the one to report; Create truncates a leftover
		return err
	}
	return syncDir(f.fs, filepath.Dir(f.path))
}

// Abort discards the temp file. It is a no-op after Commit or a
// previous Abort, so it can be deferred.
func (f *File) Abort() {
	if f.tmp == nil {
		return
	}
	f.tmp.Close()
	f.fs.Remove(f.path + ".tmp") //nolint:errcheck // Create truncates a leftover
	f.tmp = nil
}

// WriteFile atomically replaces path with whatever write produces.
func WriteFile(path string, write func(io.Writer) error) error {
	return writeFile(osFS{}, path, write)
}

func writeFile(fs fsys, path string, write func(io.Writer) error) error {
	f, err := create(fs, path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// Log is an open append log. Not safe for concurrent use.
type Log struct {
	f    file
	size int64
}

// OpenLog opens the log at path, creating it (and fsyncing its parent
// directory) if absent, and passes every newline-terminated line,
// without the newline, to decode in order. An unterminated tail is a
// torn append and is truncated; a line decode rejects fails the open.
func OpenLog(path string, decode func(line []byte) error) (*Log, error) {
	return openLog(osFS{}, path, decode)
}

func openLog(fs fsys, path string, decode func(line []byte) error) (*Log, error) {
	_, statErr := fs.Stat(path)
	// O_APPEND: every write lands at the current end, so neither the
	// scan below nor a truncation has to reposition the file.
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if errors.Is(statErr, os.ErrNotExist) {
		if err := syncDir(fs, filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	valid, torn, err := scan(f, decode)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: %s: %w", path, err)
	}
	if torn {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Log{f: f, size: valid}, nil
}

// scan feeds r's terminated lines to decode. It returns the byte
// length of the decoded prefix and whether unterminated bytes follow.
func scan(r io.Reader, decode func(line []byte) error) (valid int64, torn bool, err error) {
	br := bufio.NewReader(r)
	for line := 1; ; line++ {
		data, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return 0, false, err
		}
		if len(data) == 0 {
			return valid, false, nil
		}
		if data[len(data)-1] != '\n' {
			return valid, true, nil
		}
		if derr := decode(data[:len(data)-1]); derr != nil {
			return 0, false, fmt.Errorf("line %d corrupt: %w", line, derr)
		}
		valid += int64(len(data))
	}
}

// Append writes record and its terminating newline in one write (using
// record's spare capacity when it has any), then fsyncs if sync is
// set. A record containing a newline would break the framing the
// torn-tail repair relies on and is refused.
func (l *Log) Append(record []byte, sync bool) error {
	if bytes.IndexByte(record, '\n') >= 0 {
		return errors.New("durable: log record contains a newline")
	}
	n, err := l.f.Write(append(record, '\n'))
	l.size += int64(n)
	if err != nil {
		return err
	}
	if sync {
		return l.f.Sync()
	}
	return nil
}

// Reset empties the log.
func (l *Log) Reset() error {
	if l.size == 0 {
		return nil
	}
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.size = 0
	return nil
}

func (l *Log) Close() error { return l.f.Close() }
