package durable

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"primacy/internal/archive"
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

// ErrNotFound is returned by Get for a missing tenant or entry.
var ErrNotFound = errors.New("durable: entry not found")

// ErrClosed is returned once the store has been closed.
var ErrClosed = errors.New("durable: store closed")

// Entry is one archived variable at one timestep. Values are shared,
// read-only views of the store's state — callers must not mutate them.
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

// tenantState is one tenant's live state: the full entry list (sealed
// prefix + journaled suffix), the key index, and the open journal handle.
type tenantState struct {
	mu   sync.Mutex
	name string
	dir  string // "" in memory mode

	entries  []Entry
	index    map[entryKey]int
	rawBytes int64
	// version increments on every accepted put; callers use it to validate
	// caches built from Snapshot.
	version int64

	// sealedCount is how many leading entries live in sealed gen.
	sealedCount int
	gen         uint64

	journal    File
	journalLen int64
	// failed poisons the tenant after an unrepairable journal fault; only a
	// restart (recovery) clears it.
	failed error

	compactRunning bool
	scratch        []byte
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

// maybeSync fsyncs f unless fsync is disabled, recording the latency.
func (s *Store) maybeSync(f File) error {
	if !s.fsync {
		return nil
	}
	var t0 time.Time
	m := tmet.Load()
	if m != nil {
		t0 = time.Now()
	}
	err := f.Sync()
	if m != nil {
		m.fsyncSeconds.Observe(time.Since(t0).Seconds())
	}
	return err
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
	span := startSpan(trace.Span{}, "durable.recover").AttrStr("tenant", tenant)
	var spanErr error
	defer func() { span.End(spanErr) }()

	ents, err := s.fsys.ReadDir(tdir)
	if err != nil {
		spanErr = err
		return nil, tr, err
	}
	var gens []uint64
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
			}
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })

	ts := &tenantState{name: tenant, dir: tdir, index: make(map[entryKey]int)}
	m := tmet.Load()

	// Newest loadable sealed segment wins; anything it supersedes is
	// removed. A newer generation that fails even salvage is left on disk
	// for forensics and noted.
	var chosenGen uint64
	for _, gen := range gens {
		path := s.sealedPath(tdir, gen)
		data, err := s.fsys.ReadFile(path)
		if err != nil {
			tr.Notes = append(tr.Notes, fmt.Sprintf("sealed gen %d: %v", gen, err))
			continue
		}
		rd, rerr := archive.NewReader(bytes.NewReader(data), int64(len(data)))
		if rerr != nil {
			srd, srep, serr := archive.OpenSalvage(bytes.NewReader(data), int64(len(data)))
			if serr != nil {
				tr.Notes = append(tr.Notes, fmt.Sprintf("sealed gen %d unsalvageable: %v", gen, serr))
				span.Anomaly(trace.KindSalvageFault, fmt.Sprintf("sealed gen %d unsalvageable", gen))
				continue
			}
			rd = srd
			tr.Salvaged = true
			tr.Salvage = srep
			if m != nil {
				m.salvagedSeals.Inc()
			}
			span.Anomaly(trace.KindSalvageFault, fmt.Sprintf("sealed gen %d salvaged (%d faults)", gen, len(srep.Corruptions)))
		}
		for _, name := range rd.Variables() {
			for _, step := range rd.Steps(name) {
				values, gerr := rd.GetFloat64s(name, step)
				if gerr != nil {
					tr.DroppedSealed++
					tr.Notes = append(tr.Notes, fmt.Sprintf("sealed entry %s@%d: %v", name, step, gerr))
					if m != nil {
						m.droppedSealed.Inc()
					}
					continue
				}
				ts.appendEntry(name, step, values)
			}
		}
		chosenGen = gen
		break
	}
	ts.sealedCount = len(ts.entries)
	tr.SealedGen = chosenGen
	tr.SealedEntries = len(ts.entries) + tr.DroppedSealed
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
		ts.appendEntry(rec.name, int(rec.step), rec.values)
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
	ts.version = 1
	if m != nil {
		m.recoveredEnt.Add(int64(len(ts.entries)))
	}
	return ts, tr, nil
}

// writeFileAtomic replaces path with content via temp + fsync + rename +
// dir fsync.
func (s *Store) writeFileAtomic(dir, path string, content []byte) error {
	tmp := path + tmpSuffix
	f, err := s.fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(content); err != nil {
		f.Close()
		s.fsys.Remove(tmp)
		return err
	}
	if err := s.maybeSync(f); err != nil {
		f.Close()
		s.fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		s.fsys.Remove(tmp)
		return err
	}
	if err := s.fsys.Rename(tmp, path); err != nil {
		s.fsys.Remove(tmp)
		return err
	}
	return s.maybeSyncDir(dir)
}

// appendEntry adds an entry to the in-memory mirror (callers hold ts.mu or
// own ts exclusively during recovery).
func (ts *tenantState) appendEntry(name string, step int, values []float64) {
	ts.index[entryKey{name, uint32(step)}] = len(ts.entries)
	ts.entries = append(ts.entries, Entry{Name: name, Step: step, Values: values})
	ts.rawBytes += int64(len(values) * 8)
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
	ts := &tenantState{name: tenant, index: make(map[entryKey]int), version: 1}
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
// duplicate name@step pairs return ErrExists. The store takes ownership of
// values.
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
	if ts.journal != nil {
		span := startSpan(trace.SpanFromContext(ctx), "durable.journal.append").
			AttrStr("tenant", tenant).
			Attr("raw_bytes", raw)
		if err := s.appendJournal(ts, name, uint32(step), values); err != nil {
			span.End(err)
			return err
		}
		span.End(nil)
	}
	ts.appendEntry(name, step, values)
	ts.version++
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

// appendJournal writes and fsyncs one record; on failure it truncates the
// journal back to its last durable length so a partial record can never sit
// in front of future appends (which replay would then discard).
func (s *Store) appendJournal(ts *tenantState, name string, step uint32, values []float64) error {
	ts.scratch = appendRecord(ts.scratch[:0], name, step, values)
	if _, err := ts.journal.Write(ts.scratch); err != nil {
		s.repairJournal(ts)
		return fmt.Errorf("durable: journal append: %w", err)
	}
	m := tmet.Load()
	var syncStart time.Time
	if m != nil && s.fsync {
		syncStart = time.Now()
	}
	if err := s.maybeSync(ts.journal); err != nil {
		s.repairJournal(ts)
		return fmt.Errorf("durable: journal fsync: %w", err)
	}
	ts.journalLen += int64(len(ts.scratch))
	if m != nil {
		m.journalAppends.Inc()
		m.journalBytes.Add(int64(len(ts.scratch)))
		m.appendsByTenant.With(ts.name).Inc()
		m.bytesByTenant.With(ts.name).Add(int64(len(ts.scratch)))
		if s.fsync {
			m.fsyncByTenant.With(ts.name).Observe(time.Since(syncStart).Seconds())
		}
	}
	return nil
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

// Get returns one entry's values (a shared read-only slice).
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
	defer ts.mu.Unlock()
	i, ok := ts.index[entryKey{name, uint32(step)}]
	if !ok {
		return nil, fmt.Errorf("%w: %s@%d", ErrNotFound, name, step)
	}
	return ts.entries[i].Values, nil
}

// Snapshot returns a stable copy of the tenant's entry list plus the store
// version it reflects; a cache built from it is valid while the version is
// unchanged. Entry values are shared read-only slices.
func (s *Store) Snapshot(tenant string) ([]Entry, int64) {
	ts := s.lookup(tenant)
	if ts == nil {
		return nil, 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]Entry(nil), ts.entries...), ts.version
}

// RawBytes reports the tenant's total archived raw bytes.
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

// compact seals a snapshot of the tenant's entries: build the archive
// container in a temp file, fsync, rename into place, fsync the directory,
// then atomically rewrite the journal holding only post-snapshot records.
// Entered with ts.compactRunning set; clears it on exit.
func (s *Store) compact(ts *tenantState) (err error) {
	defer func() {
		ts.mu.Lock()
		ts.compactRunning = false
		ts.mu.Unlock()
	}()
	m := tmet.Load()
	span := startSpan(trace.Span{}, "durable.compact").AttrStr("tenant", ts.name)
	t0 := time.Now()
	defer func() {
		span.End(err)
		if m != nil {
			if err != nil {
				m.compactFailures.Inc()
				m.compactByTenant.With(ts.name, "error").Inc()
			} else {
				m.compactions.Inc()
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
	snapN := len(ts.entries)
	snap := ts.entries[:snapN:snapN]
	gen := ts.gen + 1
	ts.mu.Unlock()
	if snapN == 0 {
		return nil
	}
	span.Attr("entries", int64(snapN))

	// Phase 1 (no tenant lock): build the sealed segment in a temp file.
	// Puts keep landing in the journal meanwhile.
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
	w, err := archive.NewWriter(f, s.copts)
	if err != nil {
		return abort(err)
	}
	for _, e := range snap {
		if err := w.PutFloat64s(e.Name, e.Step, e.Values); err != nil {
			return abort(err)
		}
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
	if err := s.maybeSyncDir(ts.dir); err != nil {
		return err
	}
	img := []byte(journalMagic)
	for _, e := range ts.entries[snapN:] {
		img = appendRecord(img, e.Name, uint32(e.Step), e.Values)
	}
	jpath := filepath.Join(ts.dir, journalName)
	if err := s.writeFileAtomic(ts.dir, jpath, img); err != nil {
		// The sealed segment landed but the journal still holds its
		// records; recovery dedups. Account the new generation so a later
		// compaction supersedes it.
		ts.gen = gen
		return err
	}
	jf, err := s.fsys.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		ts.gen = gen
		ts.failed = fmt.Errorf("reopening compacted journal: %w", err)
		return err
	}
	ts.journal.Close()
	ts.journal = jf
	ts.journalLen = int64(len(img))
	oldGen := ts.gen
	ts.gen = gen
	ts.sealedCount = snapN
	if oldGen > 0 {
		// Best-effort: recovery removes stale generations anyway.
		if s.fsys.Remove(s.sealedPath(ts.dir, oldGen)) == nil {
			s.maybeSyncDir(ts.dir)
		}
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
