package faultinject

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"primacy/internal/vfs"
)

// ErrCrashed is returned by every FaultFS operation after an injected crash
// point fires: the simulated machine is off.
var ErrCrashed = errors.New("faultinject: filesystem crashed")

// ErrNoSpace simulates ENOSPC from a write that ran out of budget.
var ErrNoSpace = errors.New("faultinject: no space left on device")

// MemFS is an in-memory filesystem implementing vfs.FS with an explicit
// durability model, built to answer one question deterministically: "what
// survives a crash right now?"
//
// Each file is an inode carrying two byte images: data (the live content any
// read observes) and synced (the content made durable by the last File.Sync).
// The namespace is likewise doubled: a live name table and a durable name
// table that only SyncDir aligns, so a create, rename, or remove is volatile
// until the parent directory is synced — the same contract POSIX offers.
// Directories themselves are durable as soon as MkdirAll returns (a
// simplification; the store syncs the parent right after creating them
// anyway).
//
// Crash discards everything volatile: the namespace reverts to the durable
// table and every inode's content reverts to its synced image. The MemFS
// stays usable afterward — reopen the store against it to exercise recovery.
// Handles held across a Crash still reference their inodes (as a real FD
// would); crash tests must discard the wrecked store before reopening.
type MemFS struct {
	mu      sync.Mutex
	names   map[string]*memInode // live namespace
	durable map[string]*memInode // namespace after a crash
	dirs    map[string]bool
}

type memInode struct {
	data   []byte
	synced []byte
}

// NewMemFS returns an empty MemFS with only the root directory ".".
func NewMemFS() *MemFS {
	return &MemFS{
		names:   make(map[string]*memInode),
		durable: make(map[string]*memInode),
		dirs:    map[string]bool{".": true},
	}
}

// Crash simulates power loss: the live namespace and every file's content
// revert to their durable images. Open handles keep their inodes; discard
// them.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make(map[string]*memInode, len(m.durable))
	durableNames := make(map[string]*memInode, len(m.durable))
	for name, ino := range m.durable {
		ino.data = append([]byte(nil), ino.synced...)
		names[name] = ino
		durableNames[name] = ino
	}
	m.names = names
	m.durable = durableNames
}

// Corrupt mutates the live AND durable content of name through fn (e.g.
// faultinject.FlipBit), simulating at-rest media damage to a synced file.
func (m *MemFS) Corrupt(name string, fn func([]byte) []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.names[filepath.Clean(name)]
	if !ok {
		return fmt.Errorf("faultinject: corrupt %s: %w", name, fs.ErrNotExist)
	}
	ino.data = fn(ino.data)
	ino.synced = append([]byte(nil), ino.data...)
	return nil
}

type memFile struct {
	fs     *MemFS
	inode  *memInode
	append bool
	off    int
}

// Write implements vfs.File against the live image only; nothing is
// durable until Sync.
func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ino := f.inode
	pos := f.off
	if f.append {
		pos = len(ino.data)
	}
	if need := pos + len(p); need > len(ino.data) {
		ino.data = append(ino.data, make([]byte, need-len(ino.data))...)
	}
	copy(ino.data[pos:], p)
	f.off = pos + len(p)
	return len(p), nil
}

// Sync makes the file's current content durable.
func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.inode.synced = append([]byte(nil), f.inode.data...)
	return nil
}

// Close implements vfs.File (no-op; MemFS has no descriptor table).
func (f *memFile) Close() error { return nil }

// OpenFile implements vfs.FS.
func (m *MemFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[filepath.Dir(name)] {
		return nil, fmt.Errorf("faultinject: open %s: parent: %w", name, fs.ErrNotExist)
	}
	ino, ok := m.names[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, fmt.Errorf("faultinject: open %s: %w", name, fs.ErrNotExist)
		}
		ino = &memInode{}
		m.names[name] = ino
	} else if flag&os.O_TRUNC != 0 {
		ino.data = nil
	}
	return &memFile{fs: m, inode: ino, append: flag&os.O_APPEND != 0}, nil
}

// ReadFile implements vfs.FS (live content).
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.names[filepath.Clean(name)]
	if !ok {
		return nil, fmt.Errorf("faultinject: read %s: %w", name, fs.ErrNotExist)
	}
	return append([]byte(nil), ino.data...), nil
}

// ReadAt implements vfs.FS (live content).
func (m *MemFS) ReadAt(name string, p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.names[filepath.Clean(name)]
	if !ok {
		return 0, fmt.Errorf("faultinject: read %s: %w", name, fs.ErrNotExist)
	}
	if off < 0 {
		return 0, fmt.Errorf("faultinject: read %s at %d: negative offset", name, off)
	}
	n := 0
	if off < int64(len(ino.data)) {
		n = copy(p, ino.data[off:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Truncate implements vfs.FS. Like the syscall it changes content, not
// durability: the cut survives a crash only after the next Sync.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.names[filepath.Clean(name)]
	if !ok {
		return fmt.Errorf("faultinject: truncate %s: %w", name, fs.ErrNotExist)
	}
	if size < 0 || size > int64(len(ino.data)) {
		return fmt.Errorf("faultinject: truncate %s to %d: out of range", name, size)
	}
	ino.data = ino.data[:size]
	return nil
}

// Rename implements vfs.FS. Atomic in the live namespace; durable only
// after SyncDir on the parent.
func (m *MemFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.names[oldpath]
	if !ok {
		return fmt.Errorf("faultinject: rename %s: %w", oldpath, fs.ErrNotExist)
	}
	m.names[newpath] = ino
	delete(m.names, oldpath)
	return nil
}

// Remove implements vfs.FS.
func (m *MemFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.names[name]; !ok {
		return fmt.Errorf("faultinject: remove %s: %w", name, fs.ErrNotExist)
	}
	delete(m.names, name)
	return nil
}

// MkdirAll implements vfs.FS; directories are immediately durable.
func (m *MemFS) MkdirAll(path string, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); p != "." && p != string(filepath.Separator); p = filepath.Dir(p) {
		m.dirs[p] = true
	}
	return nil
}

// ReadDir implements vfs.FS.
func (m *MemFS) ReadDir(name string) ([]fs.DirEntry, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return nil, fmt.Errorf("faultinject: readdir %s: %w", name, fs.ErrNotExist)
	}
	var out []fs.DirEntry
	for p, ino := range m.names {
		if filepath.Dir(p) == name {
			out = append(out, memDirEntry{name: filepath.Base(p), size: int64(len(ino.data))})
		}
	}
	for d := range m.dirs {
		if d != name && filepath.Dir(d) == name {
			out = append(out, memDirEntry{name: filepath.Base(d), dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// SyncDir implements vfs.FS: the directory's direct children become
// durable exactly as the live namespace has them (creations and renames
// committed, removals committed).
func (m *MemFS) SyncDir(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return fmt.Errorf("faultinject: syncdir %s: %w", name, fs.ErrNotExist)
	}
	for p, ino := range m.names {
		if filepath.Dir(p) == name {
			m.durable[p] = ino
		}
	}
	for p := range m.durable {
		if filepath.Dir(p) == name {
			if _, ok := m.names[p]; !ok {
				delete(m.durable, p)
			}
		}
	}
	return nil
}

// DurableFile returns the content of name as it would read after a crash
// right now, and whether the name would exist at all.
func (m *MemFS) DurableFile(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.durable[filepath.Clean(name)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), ino.synced...), true
}

// memDirEntry is one name as ReadDir found it: a file's size is its live
// length at that moment.
type memDirEntry struct {
	name string
	dir  bool
	size int64
}

func (e memDirEntry) Name() string { return e.name }
func (e memDirEntry) IsDir() bool  { return e.dir }
func (e memDirEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memDirEntry) Info() (fs.FileInfo, error) { return memFileInfo{e}, nil }

type memFileInfo struct{ e memDirEntry }

func (i memFileInfo) Name() string       { return i.e.name }
func (i memFileInfo) Size() int64        { return i.e.size }
func (i memFileInfo) Mode() fs.FileMode  { return i.e.Type() }
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return i.e.dir }
func (i memFileInfo) Sys() any           { return nil }

// FaultFS wraps a vfs.FS with deterministic fault and crash injection.
// Counters are 1-based: CrashAtWrite = 3 fires on the third Write call.
// Zero-valued knobs are disabled. Once any crash point fires, every
// subsequent operation (and the in-flight one) returns ErrCrashed; pair with
// MemFS and call MemFS.Crash() to then examine the surviving state.
type FaultFS struct {
	Inner vfs.FS

	// FailWriteAfter allows this many bytes of writes, then injects ENOSPC:
	// the crossing write lands only its leading budget and returns
	// ErrNoSpace, like a full disk.
	FailWriteAfter int64
	// ShortWriteAt makes the Nth write a short write: half the buffer lands,
	// ErrInjected comes back.
	ShortWriteAt int
	// FailSyncAt makes the Nth File.Sync fail with ErrInjected without
	// syncing.
	FailSyncAt int

	// CrashAtWrite crashes on the Nth write, after TornBytes of it reached
	// durable media — the torn-write case.
	CrashAtWrite int
	// TornBytes is how much of the crashing write survives (default: half).
	TornBytes int
	// CrashAtSync crashes on the Nth File.Sync before it syncs anything.
	CrashAtSync int
	// CrashAtRename crashes on the Nth Rename before the rename happens.
	CrashAtRename int
	// CrashAtSyncDir crashes on the Nth SyncDir before it commits anything.
	CrashAtSyncDir int

	mu       sync.Mutex
	writes   int
	written  int64
	syncs    int
	renames  int
	syncDirs int
	crashed  bool
}

// Crashed reports whether an injected crash point has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

func (f *FaultFS) check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

type faultFile struct {
	fs    *FaultFS
	inner vfs.File
}

// Write applies the write-path fault knobs before delegating.
func (w *faultFile) Write(p []byte) (int, error) {
	f := w.fs
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return 0, ErrCrashed
	}
	f.writes++
	nth := f.writes
	if f.CrashAtWrite > 0 && nth == f.CrashAtWrite {
		f.crashed = true
		torn := f.TornBytes
		if torn <= 0 || torn > len(p) {
			torn = len(p) / 2
		}
		f.mu.Unlock()
		// The torn prefix reached the platter: write it and sync the file so
		// it survives the crash, then the machine is off.
		n, _ := w.inner.Write(p[:torn])
		w.inner.Sync()
		return n, ErrCrashed
	}
	if f.ShortWriteAt > 0 && nth == f.ShortWriteAt {
		f.mu.Unlock()
		n, err := w.inner.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w: short write (%d of %d bytes)", ErrInjected, n, len(p))
	}
	if f.FailWriteAfter > 0 {
		room := f.FailWriteAfter - f.written
		if room < int64(len(p)) {
			if room < 0 {
				room = 0
			}
			f.written = f.FailWriteAfter
			f.mu.Unlock()
			n, err := w.inner.Write(p[:room])
			if err != nil {
				return n, err
			}
			return n, ErrNoSpace
		}
	}
	f.written += int64(len(p))
	f.mu.Unlock()
	return w.inner.Write(p)
}

// Sync applies the sync-path fault knobs before delegating.
func (w *faultFile) Sync() error {
	f := w.fs
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	f.syncs++
	nth := f.syncs
	if f.CrashAtSync > 0 && nth == f.CrashAtSync {
		f.crashed = true
		f.mu.Unlock()
		return ErrCrashed
	}
	if f.FailSyncAt > 0 && nth == f.FailSyncAt {
		f.mu.Unlock()
		return fmt.Errorf("%w: fsync", ErrInjected)
	}
	f.mu.Unlock()
	return w.inner.Sync()
}

// Close delegates (closing is not a fault point).
func (w *faultFile) Close() error {
	if err := w.fs.check(); err != nil {
		return err
	}
	return w.inner.Close()
}

// OpenFile implements vfs.FS.
func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	inner, err := f.Inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// ReadFile implements vfs.FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.Inner.ReadFile(name)
}

// ReadAt implements vfs.FS.
func (f *FaultFS) ReadAt(name string, p []byte, off int64) (int, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	return f.Inner.ReadAt(name, p, off)
}

// Truncate implements vfs.FS.
func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Inner.Truncate(name, size)
}

// Rename implements vfs.FS with the mid-rename crash point.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	f.renames++
	if f.CrashAtRename > 0 && f.renames == f.CrashAtRename {
		f.crashed = true
		f.mu.Unlock()
		return ErrCrashed
	}
	f.mu.Unlock()
	return f.Inner.Rename(oldpath, newpath)
}

// Remove implements vfs.FS.
func (f *FaultFS) Remove(name string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Inner.Remove(name)
}

// MkdirAll implements vfs.FS.
func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Inner.MkdirAll(path, perm)
}

// ReadDir implements vfs.FS.
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.Inner.ReadDir(name)
}

// SyncDir implements vfs.FS with the pre-commit crash point.
func (f *FaultFS) SyncDir(name string) error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	f.syncDirs++
	if f.CrashAtSyncDir > 0 && f.syncDirs == f.CrashAtSyncDir {
		f.crashed = true
		f.mu.Unlock()
		return ErrCrashed
	}
	f.mu.Unlock()
	return f.Inner.SyncDir(name)
}

var _ vfs.FS = (*MemFS)(nil)
var _ vfs.FS = (*FaultFS)(nil)
