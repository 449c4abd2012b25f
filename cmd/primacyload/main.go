// Command primacyload proves primacyd's durability contract against a real
// process: N rounds of SIGKILLing a primacyd mid-write-storm, restarting it
// on the same data dir, and auditing that every acknowledged archive put
// reads back byte-identical and no corrupted entry ever surfaces. It writes
// the audit as a JSON server.CrashReport and exits non-zero when the
// contract is broken.
//
// Usage:
//
//	primacyload -crash-daemon /path/to/primacyd -crash-rounds 20 -o crash.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"primacy/internal/bytesplit"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type driverConfig struct {
	out        string
	seed       int64
	deadlineMs int

	crashRounds  int
	crashDaemon  string
	crashDir     string
	crashWriters int
}

func run(args []string) int {
	fs := flag.NewFlagSet("primacyload", flag.ContinueOnError)
	var (
		out      = fs.String("o", "", "write the JSON report here (default: stdout)")
		seed     = fs.Int64("seed", 1, "payload seed")
		deadline = fs.Int("deadline-ms", 20000, "per-request deadline header")
		crashN   = fs.Int("crash-rounds", 20, "kill-and-recover rounds")
		crashBin = fs.String("crash-daemon", "", "path to the primacyd binary under test (required)")
		crashDir = fs.String("crash-dir", "", "data dir for the rehearsal (default: a fresh temp dir, removed after)")
		crashW   = fs.Int("crash-writers", 4, "concurrent put writers per crash round")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := driverConfig{
		out: *out, seed: *seed, deadlineMs: *deadline,
		crashRounds: *crashN, crashDaemon: *crashBin,
		crashDir: *crashDir, crashWriters: *crashW,
	}
	if cfg.crashDaemon == "" || cfg.crashRounds <= 0 {
		fmt.Fprintln(os.Stderr, "primacyload: needs -crash-daemon (path to a primacyd binary) and -crash-rounds > 0")
		return 2
	}
	if err := drive(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "primacyload: %v\n", err)
		return 1
	}
	return 0
}

func drive(cfg driverConfig) error {
	cr, err := rehearseCrash(cfg)
	if err != nil {
		return fmt.Errorf("crash rehearsal: %w", err)
	}
	fmt.Fprintf(os.Stderr, "primacyload: crash rehearsal: %d rounds, %d acked, %d verified, %d unacked recovered, %d lost, %d mismatched\n",
		cr.Rounds, cr.Acked, cr.Verified, cr.UnackedRecovered, cr.Lost, cr.Mismatches)
	if err := cr.Check(); err != nil {
		return err
	}
	enc, err := json.MarshalIndent(&cr, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if cfg.out == "" {
		os.Stdout.Write(enc)
		return nil
	}
	return os.WriteFile(cfg.out, enc, 0o644)
}

// payload builds a random-walk float64 payload (compressible but not
// trivial, like the simulation data the codec targets).
func payload(rng *rand.Rand, values int) []byte {
	vs := make([]float64, values)
	v := 300.0
	for i := range vs {
		v += rng.NormFloat64()
		vs[i] = v
	}
	return bytesplit.Float64sToBytes(vs)
}
