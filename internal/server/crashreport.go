package server

import "fmt"

// CrashReport is the outcome of cmd/primacyload's kill-and-recover
// rehearsal: repeated rounds of SIGKILLing a real primacyd mid-write-storm,
// restarting it on the same data dir, and auditing the archive against the
// set of acknowledged puts.
type CrashReport struct {
	// Rounds is how many kill/restart cycles ran.
	Rounds int `json:"rounds"`
	// Acked counts puts the daemon acknowledged with 200 across all rounds.
	Acked int64 `json:"acked"`
	// Verified counts acknowledged puts that read back byte-identical after
	// the restart that followed their round's kill. Must equal Acked.
	Verified int64 `json:"verified"`
	// UnackedRecovered counts puts that were in flight at kill time (no
	// response seen) yet surfaced byte-identical after recovery. The journal
	// is at-least-once across a lost response, so these are legal.
	UnackedRecovered int64 `json:"unacked_recovered"`
	// Lost counts acknowledged puts missing after recovery — always a bug.
	Lost int64 `json:"lost"`
	// Mismatches counts entries that read back with different bytes than
	// were put — always a bug.
	Mismatches int64 `json:"mismatches"`
}

// Check holds the report to the durability contract: at least one round ran
// and acknowledged a put, nothing acknowledged was lost, nothing read back
// corrupted, and every acknowledged put was verified.
func (c CrashReport) Check() error {
	if c.Rounds <= 0 || c.Acked == 0 {
		return fmt.Errorf("crash rehearsal recorded no rounds or no acknowledged puts")
	}
	if c.Lost > 0 {
		return fmt.Errorf("crash rehearsal lost %d acknowledged puts", c.Lost)
	}
	if c.Mismatches > 0 {
		return fmt.Errorf("crash rehearsal read back %d corrupted entries", c.Mismatches)
	}
	if c.Verified != c.Acked {
		return fmt.Errorf("crash rehearsal verified %d of %d acknowledged puts", c.Verified, c.Acked)
	}
	return nil
}
