// Package vfs is the filesystem seam under the durable store: the minimal
// set of operations a crash-consistent log needs, abstracted so the
// fault-injection harness (internal/faultinject) can substitute a
// crash-simulating filesystem and test every crash window deterministically.
// It is a leaf package — it must not import other primacy packages, because
// both internal/durable and internal/faultinject depend on it.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is the subset of *os.File the store writes through. Sync must not
// return until the file's content is durable (fsync).
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations behind the store. Implementations
// must make Rename atomic with respect to crashes (either the old or the new
// name survives, never neither) and SyncDir must make preceding namespace
// operations (create, rename, remove) in that directory durable.
type FS interface {
	// OpenFile opens name with os-style flags. Implementations must honor
	// O_CREATE, O_TRUNC, and O_APPEND.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// ReadFile returns the full current content of name.
	ReadFile(name string) ([]byte, error)
	// ReadAt reads len(p) bytes of name starting at offset off, with the
	// semantics of io.ReaderAt: fewer bytes come with a non-nil error (io.EOF
	// past the end of the file).
	ReadAt(name string, p []byte, off int64) (int, error)
	// Truncate cuts name to size bytes (the torn-tail repair primitive).
	Truncate(name string, size int64) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists a directory (entries sorted by name). A file entry's
	// Info must report the file's size.
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory, making its namespace durable.
	SyncDir(name string) error
}

// OSFS is the real-disk FS.
type OSFS struct{}

// OpenFile implements FS.
func (OSFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadAt implements FS.
func (OSFS) ReadAt(name string, p []byte, off int64) (int, error) {
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.ReadAt(p, off)
}

// Truncate implements FS.
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir implements FS.
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) {
	ents, err := os.ReadDir(name)
	if err != nil {
		return nil, err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
	return ents, nil
}

// SyncDir implements FS: open the directory and fsync it, which on POSIX
// systems commits renames/creates/removes inside it.
func (OSFS) SyncDir(name string) error {
	d, err := os.Open(filepath.Clean(name))
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
