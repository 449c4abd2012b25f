package durable

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"primacy/internal/archive"
	"primacy/internal/bytesplit"
	"primacy/internal/core"
	"primacy/internal/trace"
)

// Tenant directory layout under the data dir:
//
//	<dataDir>/<tenantKey>/journal.wal          append-only put journal
//	<dataDir>/<tenantKey>/sealed-%016d.par     sealed archive segment (newest gen wins)
//	<dataDir>/<tenantKey>/*.tmp                in-flight compaction artifacts
//
// Commit protocol (what is durable when Put returns nil): the put record is
// in the journal and fsync'd. Compaction moves journal records into a sealed
// archive container with temp-file + fsync + atomic rename + directory
// fsync, then atomically rewrites the journal without the sealed prefix; a
// crash between those two renames only produces duplicate records, which
// recovery detects and skips.
//
// Memory model: in disk mode a tenant's in-memory state is an index. Each
// entry records where its bytes live — its journal record, or its entry in
// the current sealed segment — and Get reads them back from that file; no
// value outlives the put, get or compaction that handles it. Memory mode
// (an empty dir) has no files and keeps the values.
const (
	journalName  = "journal.wal"
	sealedPrefix = "sealed-"
	sealedSuffix = ".par"
	tmpSuffix    = ".tmp"
)

// ErrExists is returned by Put for a name@step the tenant already archived.
var ErrExists = errors.New("durable: entry already archived")

// ErrOverBudget is returned by Put when the tenant's raw-byte limit would be
// exceeded.
var ErrOverBudget = errors.New("durable: tenant archive budget exceeded")

// ErrNotFound is returned by Get for a missing tenant or entry, and by Each
// for a start past the tenant's last entry.
var ErrNotFound = errors.New("durable: entry not found")

// ErrClosed is returned once the store has been closed.
var ErrClosed = errors.New("durable: store closed")

// Entry is one archived variable at one timestep. In memory mode Values is
// the store's own slice; callers must not mutate it.
type Entry struct {
	Name   string
	Step   int
	Values []float64
}

// Options parameterizes Open.
type Options struct {
	// FS is the filesystem the store writes through (OSFS when nil).
	FS FS
	// NoFsync disables every fsync (journal, sealed segments, directories).
	// Throughput goes up; the crash-consistency guarantee becomes "whatever
	// the kernel flushed". Off by default for a reason.
	NoFsync bool
	// CompactEvery seals the journal into an archive segment once this many
	// unsealed entries accumulate (default 1024; negative disables
	// auto-compaction, Compact still works).
	CompactEvery int
	// Core configures the codec used to build sealed segments.
	Core core.Options
}

// Store is a durable, crash-consistent multi-tenant archive store. All
// methods are safe for concurrent use; operations on different tenants do
// not contend. Open with an empty dir for a pure in-memory store with the
// same API and no persistence (the pre-durability primacyd behavior).
type Store struct {
	dir          string
	fsys         FS
	fsync        bool
	compactEvery int
	copts        core.Options

	mu      sync.Mutex
	tenants map[string]*tenantState
	closed  bool

	// compacting tracks in-flight background compactions; Close waits.
	compacting sync.WaitGroup
}

type entryKey struct {
	name string
	step uint32
}

// slot is one entry of a tenant's index: its key and where its bytes live.
// In disk mode that is the journal record at [off, off+size) or, once
// sealed, the entry of the tenant's current sealed segment, and values is
// nil; memory mode keeps the values.
type slot struct {
	name      string
	step      int
	sealed    bool
	off, size int64
	values    []float64
}

// tenantState is one tenant's live state: the index (sealed prefix +
// journaled suffix), the reader of the sealed segment, and the open journal
// handle.
type tenantState struct {
	mu   sync.Mutex
	name string
	dir  string // "" in memory mode

	entries  []slot
	index    map[entryKey]int
	rawBytes int64

	// sealedCount is how many leading entries live in seg.
	sealedCount int
	// gen is the newest sealed generation on disk; compaction writes gen+1.
	gen uint64
	// seg reads sealed generation segGen, segSize bytes long (nil until
	// there is one). segResumable is false when recovery found faults in
	// it: compaction then encodes its entries again instead of continuing
	// it.
	seg          *archive.Reader
	segGen       uint64
	segSize      int64
	segResumable bool
	// files orders reads of entry bytes against compaction's commit: a read
	// holds it shared from taking an entry's location until it has the
	// bytes, and compaction holds it while it replaces the journal and
	// points entries at the new segment.
	files sync.RWMutex

	journal    File
	journalLen int64
	// failed poisons the tenant after an unrepairable journal fault; only a
	// restart (recovery) clears it.
	failed error

	compactRunning bool
}

// fileAt reads one file of an FS as the io.ReaderAt archive.Reader takes.
type fileAt struct {
	fsys FS
	name string
}

func (f fileAt) ReadAt(p []byte, off int64) (int, error) { return f.fsys.ReadAt(f.name, p, off) }

// sizeWriter counts what is written through it.
type sizeWriter struct {
	io.Writer
	n int64
}

func (w *sizeWriter) Write(p []byte) (int, error) {
	n, err := w.Writer.Write(p)
	w.n += int64(n)
	return n, err
}

// Open opens (or initializes) a store rooted at dir, recovering any state a
// previous process left behind. dir == "" yields an in-memory store. The
// returned RecoveryReport is never nil; per-tenant damage (torn journal
// tails, corrupt sealed segments) is repaired or salvaged and reported, not
// fatal.
func Open(dir string, opts Options) (*Store, *RecoveryReport, error) {
	s := &Store{
		dir:          dir,
		fsys:         opts.FS,
		fsync:        !opts.NoFsync,
		compactEvery: opts.CompactEvery,
		copts:        opts.Core,
		tenants:      make(map[string]*tenantState),
	}
	if s.fsys == nil {
		s.fsys = OSFS{}
	}
	if s.compactEvery == 0 {
		s.compactEvery = 1024
	}
	rep := &RecoveryReport{}
	if dir == "" {
		return s, rep, nil
	}
	if err := s.fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: creating data dir: %w", err)
	}
	ents, err := s.fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: reading data dir: %w", err)
	}
	for _, de := range ents {
		if !de.IsDir() {
			rep.SkippedDirs = append(rep.SkippedDirs, de.Name())
			continue
		}
		tenant, ok := decodeTenant(de.Name())
		if !ok {
			rep.SkippedDirs = append(rep.SkippedDirs, de.Name())
			continue
		}
		ts, tr, err := s.recoverTenant(de.Name(), tenant)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: recovering tenant %q: %w", tenant, err)
		}
		s.tenants[tenant] = ts
		rep.Tenants = append(rep.Tenants, tr)
	}
	return s, rep, nil
}

// encodeTenant maps an arbitrary tenant name to a filesystem-safe directory
// key: a readable "t_<name>" for plain names, "x_<hex>" otherwise.
func encodeTenant(name string) string {
	plain := name != "" && len(name) <= 128
	for i := 0; plain && i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			plain = false
		}
	}
	if plain {
		return "t_" + name
	}
	return "x_" + hex.EncodeToString([]byte(name))
}

// decodeTenant inverts encodeTenant; unknown keys are skipped by recovery.
func decodeTenant(key string) (string, bool) {
	if name, ok := strings.CutPrefix(key, "t_"); ok && name != "" {
		return name, true
	}
	if enc, ok := strings.CutPrefix(key, "x_"); ok {
		raw, err := hex.DecodeString(enc)
		if err != nil || len(raw) == 0 {
			return "", false
		}
		return string(raw), true
	}
	return "", false
}

func (s *Store) sealedPath(tdir string, gen uint64) string {
	return filepath.Join(tdir, fmt.Sprintf("%s%016d%s", sealedPrefix, gen, sealedSuffix))
}

func parseSealedGen(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, sealedPrefix)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, sealedSuffix)
	if !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || gen == 0 {
		return 0, false
	}
	return gen, true
}

// maybeSync fsyncs f unless fsync is disabled.
func (s *Store) maybeSync(f File) error {
	if !s.fsync {
		return nil
	}
	return f.Sync()
}

func (s *Store) maybeSyncDir(dir string) error {
	if !s.fsync {
		return nil
	}
	return s.fsys.SyncDir(dir)
}

// recoverTenant rebuilds one tenant's state from its directory: drop temp
// files, load the newest loadable sealed segment (salvaging if needed),
// replay the journal with torn-tail truncation, and dedup the replay
// against the sealed entries.
func (s *Store) recoverTenant(key, tenant string) (*tenantState, TenantRecovery, error) {
	tr := TenantRecovery{Tenant: tenant}
	tdir := filepath.Join(s.dir, key)
	span := trace.Start(trace.Span{}, "durable.recover").AttrStr("tenant", tenant)
	var spanErr error
	defer func() { span.End(spanErr) }()

	ents, err := s.fsys.ReadDir(tdir)
	if err != nil {
		spanErr = err
		return nil, tr, err
	}
	var gens []uint64
	listed := make(map[uint64]fs.DirEntry)
	dirty := false
	for _, de := range ents {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			if err := s.fsys.Remove(filepath.Join(tdir, name)); err == nil {
				tr.TmpRemoved++
				dirty = true
			} else {
				tr.Notes = append(tr.Notes, fmt.Sprintf("removing %s: %v", name, err))
			}
		default:
			if gen, ok := parseSealedGen(name); ok {
				gens = append(gens, gen)
				listed[gen] = de
			}
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })

	ts := &tenantState{name: tenant, dir: tdir, index: make(map[entryKey]int)}
	m := tmet.Load()

	// Newest loadable sealed segment wins; anything it supersedes is
	// removed. A newer generation that fails even salvage is left on disk
	// for forensics and noted. The segment is opened once, through its
	// file: the reader that verifies it serves the tenant's gets.
	var chosenGen uint64
	for _, gen := range gens {
		info, err := listed[gen].Info()
		if err != nil {
			tr.Notes = append(tr.Notes, fmt.Sprintf("sealed gen %d: %v", gen, err))
			continue
		}
		src, size := fileAt{s.fsys, s.sealedPath(tdir, gen)}, info.Size()
		rd, srep, serr := archive.OpenSalvage(src, size)
		if serr != nil {
			tr.Notes = append(tr.Notes, fmt.Sprintf("sealed gen %d unsalvageable: %v", gen, serr))
			span.Anomaly(trace.KindSalvageFault, fmt.Sprintf("sealed gen %d unsalvageable", gen))
			continue
		}
		if !srep.Clean() {
			tr.Salvaged, tr.Salvage = true, srep
			if m != nil {
				m.salvagedSeals.Inc()
			}
			span.Anomaly(trace.KindSalvageFault, fmt.Sprintf("sealed gen %d salvaged (%d faults)", gen, len(srep.Corruptions)))
		}
		// The open decoded every entry it lists; the index keeps only that
		// it is sealed.
		for _, name := range rd.Variables() {
			for _, step := range rd.Steps(name) {
				ts.appendSlot(slot{name: name, step: step, sealed: true}, 0)
			}
		}
		ts.rawBytes += rd.RawBytes()
		ts.seg, ts.segGen, ts.segSize, ts.segResumable = rd, gen, size, srep.Clean()
		chosenGen = gen
		break
	}
	ts.sealedCount = len(ts.entries)
	tr.SealedGen = chosenGen
	tr.SealedEntries = len(ts.entries)
	if len(gens) > 0 {
		ts.gen = gens[0] // next compaction must supersede every gen on disk
	}
	for _, gen := range gens {
		if gen < chosenGen {
			if err := s.fsys.Remove(s.sealedPath(tdir, gen)); err == nil {
				tr.StaleSealedRemoved++
				dirty = true
			}
		}
	}
	if dirty {
		if err := s.maybeSyncDir(tdir); err != nil {
			tr.Notes = append(tr.Notes, fmt.Sprintf("dir sync after cleanup: %v", err))
		}
	}

	// Journal replay with torn-tail truncation.
	jpath := filepath.Join(tdir, journalName)
	buf, err := s.fsys.ReadFile(jpath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		spanErr = err
		return nil, tr, err
	}
	recs, goodLen, torn := replayJournal(buf)
	for _, rec := range recs {
		k := entryKey{rec.name, rec.step}
		if _, dup := ts.index[k]; dup {
			tr.JournalDuplicates++
			if m != nil {
				m.replayDups.Inc()
			}
			continue
		}
		ts.appendSlot(slot{name: rec.name, step: int(rec.step), off: rec.off, size: rec.size}, int64(len(rec.payload)))
		tr.JournalEntries++
	}
	tr.JournalEntries += tr.JournalDuplicates
	if goodLen < int64(len(journalMagic)) {
		// Missing or headerless journal: initialize a fresh one atomically.
		if err := s.writeFileAtomic(tdir, jpath, []byte(journalMagic)); err != nil {
			spanErr = err
			return nil, tr, err
		}
		goodLen = int64(len(journalMagic))
	} else if torn > 0 {
		if err := s.fsys.Truncate(jpath, goodLen); err != nil {
			spanErr = err
			return nil, tr, err
		}
	}
	if torn > 0 {
		tr.TornTailBytes = torn
		span.Anomaly(trace.KindSalvageFault, fmt.Sprintf("journal torn tail: %d bytes truncated", torn))
		if m != nil {
			m.tornTails.Inc()
			m.tornTailBytes.Add(torn)
		}
	}
	jf, err := s.fsys.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		spanErr = err
		return nil, tr, err
	}
	if torn > 0 {
		// Make the truncation itself durable before accepting new appends.
		if err := s.maybeSync(jf); err != nil {
			jf.Close()
			spanErr = err
			return nil, tr, err
		}
	}
	ts.journal = jf
	ts.journalLen = goodLen
	if m != nil {
		m.recoveredEnt.Add(int64(len(ts.entries)))
	}
	return ts, tr, nil
}

// writeFileAtomic replaces path with content via temp + fsync + rename +
// dir fsync.
func (s *Store) writeFileAtomic(dir, path string, content []byte) error {
	tmp, err := s.writeTemp(path, content)
	if err != nil {
		return err
	}
	if err := s.fsys.Rename(tmp, path); err != nil {
		s.fsys.Remove(tmp)
		return err
	}
	return s.maybeSyncDir(dir)
}

// writeTemp writes content to path's temp file, fsyncs and closes it, and
// returns the temp file's name.
func (s *Store) writeTemp(path string, content []byte) (string, error) {
	tmp := path + tmpSuffix
	f, err := s.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(content); err != nil {
		f.Close()
		s.fsys.Remove(tmp)
		return "", err
	}
	if err := s.maybeSync(f); err != nil {
		f.Close()
		s.fsys.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		s.fsys.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// appendSlot adds an entry of rawBytes value bytes to the index (callers
// hold ts.mu or own ts exclusively during recovery).
func (ts *tenantState) appendSlot(sl slot, rawBytes int64) {
	ts.index[entryKey{sl.name, uint32(sl.step)}] = len(ts.entries)
	ts.entries = append(ts.entries, sl)
	ts.rawBytes += rawBytes
}

// tenantFor returns the tenant's state, creating its directory and a fresh
// journal on first use.
func (s *Store) tenantFor(tenant string) (*tenantState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if ts, ok := s.tenants[tenant]; ok {
		return ts, nil
	}
	ts := &tenantState{name: tenant, index: make(map[entryKey]int)}
	if s.dir != "" {
		key := encodeTenant(tenant)
		tdir := filepath.Join(s.dir, key)
		if err := s.fsys.MkdirAll(tdir, 0o755); err != nil {
			return nil, fmt.Errorf("durable: creating tenant dir: %w", err)
		}
		if err := s.maybeSyncDir(s.dir); err != nil {
			return nil, fmt.Errorf("durable: syncing data dir: %w", err)
		}
		jpath := filepath.Join(tdir, journalName)
		jf, err := s.fsys.OpenFile(jpath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("durable: creating journal: %w", err)
		}
		if _, err := jf.Write([]byte(journalMagic)); err != nil {
			jf.Close()
			return nil, fmt.Errorf("durable: initializing journal: %w", err)
		}
		if err := s.maybeSync(jf); err != nil {
			jf.Close()
			return nil, fmt.Errorf("durable: syncing journal: %w", err)
		}
		if err := s.maybeSyncDir(tdir); err != nil {
			jf.Close()
			return nil, fmt.Errorf("durable: syncing tenant dir: %w", err)
		}
		ts.dir = tdir
		ts.journal = jf
		ts.journalLen = int64(len(journalMagic))
	}
	s.tenants[tenant] = ts
	return ts, nil
}

func (s *Store) lookup(tenant string) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[tenant]
}

// Put archives one entry for the tenant. When Put returns nil the entry is
// durable: its journal record has been written and fsync'd (in durable
// mode). limit > 0 caps the tenant's total raw bytes (ErrOverBudget);
// duplicate name@step pairs return ErrExists. In memory mode the store
// takes ownership of values; in disk mode it keeps none of them.
func (s *Store) Put(ctx context.Context, tenant, name string, step int, values []float64, limit int64) (err error) {
	if name == "" || len(name) > 65535 {
		return fmt.Errorf("durable: variable name length %d out of range", len(name))
	}
	if step < 0 || int64(step) > int64(^uint32(0)) {
		return fmt.Errorf("durable: step %d out of range", step)
	}
	if len(values) == 0 {
		return errors.New("durable: empty entry")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ts, err := s.tenantFor(tenant)
	if err != nil {
		return err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.failed != nil {
		return fmt.Errorf("durable: tenant %q persistence failed (restart to recover): %w", tenant, ts.failed)
	}
	k := entryKey{name, uint32(step)}
	if _, dup := ts.index[k]; dup {
		return fmt.Errorf("%w: %s@%d", ErrExists, name, step)
	}
	raw := int64(len(values) * 8)
	if limit > 0 && ts.rawBytes+raw > limit {
		return fmt.Errorf("%w: %d bytes", ErrOverBudget, limit)
	}
	sl := slot{name: name, step: step}
	if ts.journal == nil {
		sl.values = values
	} else {
		span := trace.Start(trace.SpanFromContext(ctx), "durable.journal.append").
			AttrStr("tenant", tenant).
			Attr("raw_bytes", raw)
		sl.off = ts.journalLen
		if sl.size, err = s.appendJournal(ts, name, uint32(step), values); err != nil {
			span.End(err)
			return err
		}
		span.End(nil)
	}
	ts.appendSlot(sl, raw)
	if ts.dir != "" && s.compactEvery > 0 && len(ts.entries)-ts.sealedCount >= s.compactEvery && !ts.compactRunning {
		ts.compactRunning = true
		s.compacting.Add(1)
		go func() {
			defer s.compacting.Done()
			s.compact(ts)
		}()
	}
	return nil
}

// appendJournal writes and fsyncs one record and returns its length; on
// failure it truncates the journal back to its last durable length so a
// partial record can never sit in front of future appends (which replay
// would then discard).
func (s *Store) appendJournal(ts *tenantState, name string, step uint32, values []float64) (int64, error) {
	bp := getRecordBuf(recFixed + bodyFixed + len(name) + len(values)*8)
	defer recordPool.Put(bp)
	rec := appendRecord((*bp)[:0], name, step, values)
	if _, err := ts.journal.Write(rec); err != nil {
		s.repairJournal(ts)
		return 0, fmt.Errorf("durable: journal append: %w", err)
	}
	m := tmet.Load()
	var syncStart time.Time
	if m != nil && s.fsync {
		syncStart = time.Now()
	}
	if err := s.maybeSync(ts.journal); err != nil {
		s.repairJournal(ts)
		return 0, fmt.Errorf("durable: journal fsync: %w", err)
	}
	n := int64(len(rec))
	ts.journalLen += n
	if m != nil {
		m.appendsByTenant.With(ts.name).Inc()
		m.bytesByTenant.With(ts.name).Add(n)
		if s.fsync {
			m.fsyncByTenant.With(ts.name).Observe(time.Since(syncStart).Seconds())
		}
	}
	return n, nil
}

// repairJournal cuts the journal back to the last fully-acknowledged record
// after a failed append (short write, ENOSPC, failed fsync). If the repair
// itself fails the tenant goes sticky-failed: better to refuse writes than
// to stack records behind garbage.
func (s *Store) repairJournal(ts *tenantState) {
	jpath := filepath.Join(ts.dir, journalName)
	if err := s.fsys.Truncate(jpath, ts.journalLen); err != nil {
		ts.failed = fmt.Errorf("truncating journal to %d: %w", ts.journalLen, err)
		return
	}
	if err := s.maybeSync(ts.journal); err != nil {
		ts.failed = fmt.Errorf("syncing repaired journal: %w", err)
		return
	}
	if m := tmet.Load(); m != nil {
		m.journalRepairs.Inc()
	}
}

// Get returns one entry's values, read back from the journal record or the
// sealed segment entry that holds them (memory mode: the store's own slice,
// which callers must not mutate).
func (s *Store) Get(tenant, name string, step int) ([]float64, error) {
	ts := s.lookup(tenant)
	if ts == nil {
		return nil, fmt.Errorf("%w: tenant %q", ErrNotFound, tenant)
	}
	if step < 0 || int64(step) > math.MaxUint32 {
		// Put stores no such step; the index key below would wrap it onto
		// one that may exist.
		return nil, fmt.Errorf("%w: %s@%d", ErrNotFound, name, step)
	}
	ts.mu.Lock()
	i, ok := ts.index[entryKey{name, uint32(step)}]
	ts.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s@%d", ErrNotFound, name, step)
	}
	e, err := s.load(ts, i)
	return e.Values, err
}

// Each hands fn the tenant's entries from the from-th on, one at a time,
// each read back as Get reads it, and stops at the first error, which it
// returns. The order is put order, except that a restart lists the entries
// it found sealed first, by name and step. Entries are only ever appended,
// so a caller holding the first from of them reads only the rest. A from
// beyond the tenant's entry count is ErrNotFound, before fn runs.
func (s *Store) Each(tenant string, from int, fn func(Entry) error) error {
	n := 0
	ts := s.lookup(tenant)
	if ts != nil {
		ts.mu.Lock()
		n = len(ts.entries)
		ts.mu.Unlock()
	}
	if from < 0 || from > n {
		return fmt.Errorf("%w: entry %d of tenant %q, which has %d", ErrNotFound, from, tenant, n)
	}
	return s.each(ts, from, n, fn)
}

// each hands fn entries [from, to) of ts in order, each read by load: the
// one way an entry leaves the store.
func (s *Store) each(ts *tenantState, from, to int, fn func(Entry) error) error {
	for i := from; i < to; i++ {
		e, err := s.load(ts, i)
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}

// load returns entry i of ts. Its location is taken and its bytes read
// under ts.files, so a compaction cannot move the entry in between, while
// puts to the tenant go on.
func (s *Store) load(ts *tenantState, i int) (Entry, error) {
	ts.mu.Lock()
	sl, seg := ts.entries[i], ts.seg
	ts.files.RLock()
	ts.mu.Unlock()
	defer ts.files.RUnlock()
	e := Entry{Name: sl.name, Step: sl.step, Values: sl.values}
	if ts.dir == "" {
		return e, nil
	}
	var err error
	if sl.sealed {
		e.Values, err = seg.GetFloat64s(sl.name, sl.step)
	} else {
		e.Values, err = s.journalValues(ts.dir, sl)
	}
	return e, err
}

// journalValues reads the journal record of sl back, verifies it, and
// decodes its values.
func (s *Store) journalValues(dir string, sl slot) ([]float64, error) {
	bp := getRecordBuf(int(sl.size))
	defer recordPool.Put(bp)
	if _, err := s.fsys.ReadAt(filepath.Join(dir, journalName), *bp, sl.off); err != nil {
		return nil, fmt.Errorf("durable: reading %s@%d from the journal: %w", sl.name, sl.step, err)
	}
	rec, _, err := parseRecord(*bp)
	if err == nil && (rec.name != sl.name || int(rec.step) != sl.step) {
		err = fmt.Errorf("%w: record at offset %d holds %s@%d", ErrJournal, sl.off, rec.name, rec.step)
	}
	if err != nil {
		return nil, fmt.Errorf("durable: journal record of %s@%d: %w", sl.name, sl.step, err)
	}
	return bytesplit.BytesToFloat64s(rec.payload)
}

// RawBytes reports the tenant's total archived raw bytes. Every put adds to
// it and nothing takes away, so it also tells one state of the tenant's
// archive from any earlier one.
func (s *Store) RawBytes(tenant string) int64 {
	ts := s.lookup(tenant)
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.rawBytes
}

// Tenants lists tenants with live state, sorted.
func (s *Store) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Compact synchronously seals the tenant's journaled entries into a new
// sealed segment (no-op for memory mode, unknown tenants, or when a
// background compaction is already running).
func (s *Store) Compact(tenant string) error {
	ts := s.lookup(tenant)
	if ts == nil || ts.dir == "" {
		return nil
	}
	ts.mu.Lock()
	if ts.compactRunning {
		ts.mu.Unlock()
		return nil
	}
	ts.compactRunning = true
	ts.mu.Unlock()
	s.compacting.Add(1)
	defer s.compacting.Done()
	return s.compact(ts)
}

// compact seals the tenant's journaled entries: build the next sealed
// segment — the current one continued, then the entries it lacks, read by
// each — in a temp file, fsync, rename into place, fsync the directory,
// then atomically rewrite the journal holding only post-snapshot records.
// Entered with ts.compactRunning set; clears it on exit.
func (s *Store) compact(ts *tenantState) (err error) {
	defer func() {
		ts.mu.Lock()
		ts.compactRunning = false
		ts.mu.Unlock()
	}()
	m := tmet.Load()
	span := trace.Start(trace.Span{}, "durable.compact").AttrStr("tenant", ts.name)
	t0 := time.Now()
	defer func() {
		span.End(err)
		if m != nil {
			if err != nil {
				m.compactByTenant.With(ts.name, "error").Inc()
			} else {
				m.compactSeconds.Observe(time.Since(t0).Seconds())
				m.compactByTenant.With(ts.name, "ok").Inc()
			}
		}
	}()

	ts.mu.Lock()
	if ts.failed != nil {
		ts.mu.Unlock()
		return ts.failed
	}
	sealedN, snapN := ts.sealedCount, len(ts.entries)
	segGen, segSize := ts.segGen, ts.segSize
	// The current segment is continued as it is, unless recovery found
	// faults in it: then its entries are encoded again.
	var prev io.ReaderAt
	if ts.segResumable {
		prev = fileAt{s.fsys, s.sealedPath(ts.dir, segGen)}
	}
	gen := ts.gen + 1
	ts.mu.Unlock()
	if snapN == sealedN {
		return nil
	}
	span.Attr("entries", int64(snapN))

	// Phase 1 (no tenant lock): build the sealed segment in a temp file.
	// Puts keep landing in the journal meanwhile; the records of the
	// snapshot stay where they are until phase 2.
	sealPath := s.sealedPath(ts.dir, gen)
	tmp := sealPath + tmpSuffix
	f, err := s.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	abort := func(e error) error {
		f.Close()
		s.fsys.Remove(tmp)
		return e
	}
	out := &sizeWriter{Writer: f}
	w, err := archive.ResumeWriterCtx(context.Background(), out, prev, segSize, s.copts)
	if err != nil {
		return abort(err)
	}
	if prev != nil && w.NumEntries() != sealedN {
		return abort(fmt.Errorf("durable: sealed gen %d holds %d entries, the index %d", segGen, w.NumEntries(), sealedN))
	}
	if err := s.each(ts, w.NumEntries(), snapN, func(e Entry) error {
		return w.PutFloat64s(e.Name, e.Step, e.Values)
	}); err != nil {
		return abort(err)
	}
	if err := w.Close(); err != nil {
		return abort(err)
	}
	if err := s.maybeSync(f); err != nil {
		return abort(err)
	}
	if err := f.Close(); err != nil {
		s.fsys.Remove(tmp)
		return err
	}

	// Phase 2 (tenant lock): commit. Rename the segment into place, then
	// rewrite the journal without the sealed prefix. A crash between the
	// two renames leaves duplicates for recovery to skip — never a gap.
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if err := s.fsys.Rename(tmp, sealPath); err != nil {
		s.fsys.Remove(tmp)
		return err
	}
	// Whatever fails from here, a later compaction must supersede gen.
	ts.gen = gen
	if err := s.maybeSyncDir(ts.dir); err != nil {
		return err
	}
	newSeg, err := archive.NewReader(fileAt{s.fsys, sealPath}, out.n)
	if err != nil {
		return err
	}
	// The new journal is the records put since the snapshot, copied as
	// they are: from the first of them to the end.
	jpath := filepath.Join(ts.dir, journalName)
	from := ts.journalLen
	if snapN < len(ts.entries) {
		from = ts.entries[snapN].off
	}
	img := make([]byte, int64(len(journalMagic))+ts.journalLen-from)
	copy(img, journalMagic)
	if _, err := s.fsys.ReadAt(jpath, img[len(journalMagic):], from); err != nil {
		return fmt.Errorf("durable: reading the journal suffix: %w", err)
	}
	jtmp, err := s.writeTemp(jpath, img)
	if err != nil {
		return err
	}
	ts.files.Lock()
	if err := s.fsys.Rename(jtmp, jpath); err != nil {
		ts.files.Unlock()
		s.fsys.Remove(jtmp)
		return err
	}
	for i := sealedN; i < snapN; i++ {
		ts.entries[i].sealed = true
	}
	for i := snapN; i < len(ts.entries); i++ {
		ts.entries[i].off -= from - int64(len(journalMagic))
	}
	ts.seg, ts.segGen, ts.segSize, ts.segResumable, ts.sealedCount = newSeg, gen, out.n, true, snapN
	ts.files.Unlock()
	jf, err := s.fsys.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		ts.failed = fmt.Errorf("reopening compacted journal: %w", err)
		return err
	}
	ts.journal.Close()
	ts.journal = jf
	ts.journalLen = int64(len(img))
	if err := s.maybeSyncDir(ts.dir); err != nil {
		return err
	}
	// Best-effort: recovery removes stale generations anyway. gen-1 differs
	// from segGen only when an earlier compaction failed after its rename.
	removed := false
	for _, old := range []uint64{segGen, gen - 1} {
		if old > 0 && s.fsys.Remove(s.sealedPath(ts.dir, old)) == nil {
			removed = true
		}
	}
	if removed {
		s.maybeSyncDir(ts.dir)
	}
	return nil
}

// Close flushes and closes every tenant journal after waiting out in-flight
// compactions. The store refuses further writes. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	tenants := make([]*tenantState, 0, len(s.tenants))
	for _, ts := range s.tenants {
		tenants = append(tenants, ts)
	}
	s.mu.Unlock()
	s.compacting.Wait()
	var first error
	for _, ts := range tenants {
		ts.mu.Lock()
		if ts.journal != nil {
			if err := ts.journal.Close(); err != nil && first == nil {
				first = err
			}
			ts.journal = nil
			ts.failed = ErrClosed
		}
		ts.mu.Unlock()
	}
	return first
}
