package durable

import (
	"fmt"
	"strings"

	"primacy/internal/core"
)

// TenantRecovery is the structured outcome of recovering one tenant
// directory at startup.
type TenantRecovery struct {
	// Tenant is the decoded tenant name.
	Tenant string `json:"tenant"`
	// SealedGen is the generation number of the sealed segment that was
	// loaded (0 when the tenant had none).
	SealedGen uint64 `json:"sealed_gen,omitempty"`
	// SealedEntries counts entries loaded from the sealed segment.
	SealedEntries int `json:"sealed_entries"`
	// Salvaged reports that the sealed segment's salvage open found faults:
	// a lost TOC, or entries that do not read back and were dropped.
	Salvaged bool `json:"salvaged,omitempty"`
	// Salvage is that open's report, naming every dropped entry.
	Salvage *core.CorruptionReport `json:"salvage,omitempty"`
	// JournalEntries counts records replayed from the journal.
	JournalEntries int `json:"journal_entries"`
	// JournalDuplicates counts replayed records already present in the
	// sealed segment — the signature of a crash between the seal rename and
	// the journal reset. They are skipped, not errors.
	JournalDuplicates int `json:"journal_duplicates,omitempty"`
	// TornTailBytes is how many trailing journal bytes failed to verify and
	// were truncated away. Only unacknowledged writes can live there.
	TornTailBytes int64 `json:"torn_tail_bytes,omitempty"`
	// TmpRemoved counts leftover temp files (a crash mid-compaction) that
	// were deleted.
	TmpRemoved int `json:"tmp_removed,omitempty"`
	// StaleSealedRemoved counts superseded sealed generations deleted after
	// picking the newest loadable one.
	StaleSealedRemoved int `json:"stale_sealed_removed,omitempty"`
	// Notes carries non-fatal recovery diagnostics.
	Notes []string `json:"notes,omitempty"`
}

// Entries is the total number of live entries recovered for the tenant.
func (t *TenantRecovery) Entries() int {
	return t.SealedEntries + t.JournalEntries - t.JournalDuplicates
}

// RecoveryReport summarizes a Store recovery: what every tenant directory
// held, what was replayed, what was truncated, and what needed salvage.
// Recovery never aborts startup over per-tenant damage; it reports it here.
type RecoveryReport struct {
	Tenants []TenantRecovery `json:"tenants,omitempty"`
	// SkippedDirs lists directory names that do not decode as tenant keys
	// (foreign files in the data dir are left alone).
	SkippedDirs []string `json:"skipped_dirs,omitempty"`
}

// Dirty reports whether recovery saw anything beyond a clean shutdown:
// torn tails, salvaged segments, leftover temps, or replay duplicates.
func (r *RecoveryReport) Dirty() bool {
	for _, t := range r.Tenants {
		if t.TornTailBytes > 0 || t.Salvaged || t.TmpRemoved > 0 ||
			t.JournalDuplicates > 0 || t.StaleSealedRemoved > 0 {
			return true
		}
	}
	return false
}

// Summary renders a one-line-per-tenant human summary for startup logs.
func (r *RecoveryReport) Summary() string {
	if len(r.Tenants) == 0 {
		return "durable: recovery: no tenants"
	}
	var b strings.Builder
	for i, t := range r.Tenants {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "durable: recovered tenant %q: %d entries (%d sealed gen %d, %d journaled)",
			t.Tenant, t.Entries(), t.SealedEntries, t.SealedGen, t.JournalEntries)
		if t.JournalDuplicates > 0 {
			fmt.Fprintf(&b, ", %d duplicate replays skipped", t.JournalDuplicates)
		}
		if t.TornTailBytes > 0 {
			fmt.Fprintf(&b, ", torn tail of %d bytes truncated", t.TornTailBytes)
		}
		if t.Salvaged {
			fmt.Fprintf(&b, ", sealed segment salvaged (%d faults)", len(t.Salvage.Corruptions))
		}
		if t.TmpRemoved > 0 {
			fmt.Fprintf(&b, ", %d temp files removed", t.TmpRemoved)
		}
	}
	return b.String()
}
