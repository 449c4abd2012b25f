package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"primacy/internal/server"
)

// crashEntry is one archive put the rehearsal issued: its key, the exact
// payload bytes sent, and whether the daemon acknowledged it before the kill.
type crashEntry struct {
	name  string
	step  int
	body  []byte
	acked bool
}

const crashTenant = "crash-rehearsal"

// rehearseCrash proves the durability contract against a real process: it
// repeatedly SIGKILLs a primacyd mid-write-storm, restarts it on the same
// data dir, and audits the recovered archive. Every acknowledged put must
// read back byte-identical; a put whose response was lost to the kill may
// surface (the fsync can land before the 200 does) but only byte-identical;
// nothing else may appear.
func rehearseCrash(cfg driverConfig) (server.CrashReport, error) {
	cr := server.CrashReport{Rounds: cfg.crashRounds}
	dir := cfg.crashDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "primacyload-crash-*")
		if err != nil {
			return cr, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cr, err
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}

	daemon, err := startDaemon(cfg.crashDaemon, addr, dir)
	if err != nil {
		return cr, fmt.Errorf("starting daemon: %w", err)
	}
	defer func() {
		if daemon != nil && daemon.Process != nil {
			daemon.Process.Kill()
			daemon.Wait()
		}
	}()
	if err := waitReady(client, base, 15*time.Second); err != nil {
		return cr, err
	}

	var entries []*crashEntry
	for round := 1; round <= cfg.crashRounds; round++ {
		stormed, err := crashStorm(client, base, cfg, round, daemon)
		if err != nil {
			return cr, fmt.Errorf("round %d: %w", round, err)
		}
		entries = append(entries, stormed...)
		daemon.Wait()

		daemon, err = startDaemon(cfg.crashDaemon, addr, dir)
		if err != nil {
			return cr, fmt.Errorf("round %d: restarting daemon: %w", round, err)
		}
		if err := waitReady(client, base, 15*time.Second); err != nil {
			return cr, fmt.Errorf("round %d: %w", round, err)
		}

		// Audit everything issued so far — durability must be cumulative
		// across every kill, not just the latest.
		roundCr := server.CrashReport{}
		if err := auditEntries(client, base, entries, &roundCr); err != nil {
			return cr, fmt.Errorf("round %d: %w", round, err)
		}
		cr.Acked, cr.Verified = roundCr.Acked, roundCr.Verified
		cr.UnackedRecovered = roundCr.UnackedRecovered
		cr.Lost, cr.Mismatches = roundCr.Lost, roundCr.Mismatches
		fmt.Fprintf(os.Stderr, "primacyload: crash round %-3d acked=%-5d verified=%-5d unacked-recovered=%-3d lost=%d mismatches=%d\n",
			round, cr.Acked, cr.Verified, cr.UnackedRecovered, cr.Lost, cr.Mismatches)
	}

	// Stop the final daemon gracefully; a dirty exit fails the rehearsal.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return cr, err
	}
	err = daemon.Wait()
	daemon = nil
	if err != nil {
		return cr, fmt.Errorf("final daemon exited dirty: %w", err)
	}
	return cr, nil
}

// startDaemon launches the primacyd binary under test on the rehearsal's
// data dir.
func startDaemon(path, addr, dir string) (*exec.Cmd, error) {
	cmd := exec.Command(path, "-addr", addr, "-data-dir", dir, "-quiet", "-drain-timeout", "10s")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return cmd, nil
}

// waitReady polls /readyz until the daemon answers 200.
func waitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("daemon at %s never became ready", base)
}

// crashStorm runs concurrent put writers against the daemon and SIGKILLs it
// once the storm is provably in progress. It returns every entry issued this
// round, flagged by whether its 200 arrived before the kill.
func crashStorm(client *http.Client, base string, cfg driverConfig, round int, daemon *exec.Cmd) ([]*crashEntry, error) {
	var (
		mu      sync.Mutex
		entries []*crashEntry
		badResp error
		acked   atomic.Int64
	)
	var wg sync.WaitGroup
	for w := 0; w < cfg.crashWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(round)*1_000_003 + int64(w)))
			name := fmt.Sprintf("r%dw%d", round, w)
			for i := 0; i < 200; i++ {
				e := &crashEntry{name: name, step: i, body: payload(rng, 512)}
				url := fmt.Sprintf("%s/v1/archive/put?name=%s&step=%d", base, e.name, e.step)
				req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(e.body))
				if err != nil {
					return
				}
				req.Header.Set("X-Primacy-Tenant", crashTenant)
				req.Header.Set("X-Primacy-Deadline-Ms", strconv.Itoa(cfg.deadlineMs))
				resp, err := client.Do(req)
				if err != nil {
					// The kill landed mid-request: the put may or may not
					// have been journaled. Track it for the at-least-once
					// audit.
					mu.Lock()
					entries = append(entries, e)
					mu.Unlock()
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					e.acked = true
					acked.Add(1)
					mu.Lock()
					entries = append(entries, e)
					mu.Unlock()
				case http.StatusRequestEntityTooLarge:
					return // tenant budget reached; stop this writer
				default:
					mu.Lock()
					if badResp == nil {
						badResp = fmt.Errorf("put %s@%d answered %d", e.name, e.step, resp.StatusCode)
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}

	// Kill only once the storm is demonstrably writing, then mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for acked.Load() < int64(cfg.crashWriters) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(15 * time.Millisecond)
	if err := daemon.Process.Kill(); err != nil {
		wg.Wait()
		return nil, fmt.Errorf("SIGKILL: %w", err)
	}
	wg.Wait()
	if badResp != nil {
		return nil, badResp
	}
	if acked.Load() == 0 {
		return nil, fmt.Errorf("no put was acknowledged before the kill")
	}
	return entries, nil
}

// auditEntries reads every issued entry back from the recovered daemon and
// scores it against the durability contract.
func auditEntries(client *http.Client, base string, entries []*crashEntry, cr *server.CrashReport) error {
	for _, e := range entries {
		url := fmt.Sprintf("%s/v1/archive/get?name=%s&step=%d", base, e.name, e.step)
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("X-Primacy-Tenant", crashTenant)
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("auditing %s@%d: %w", e.name, e.step, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("auditing %s@%d: %w", e.name, e.step, err)
		}
		if e.acked {
			cr.Acked++
			switch {
			case resp.StatusCode != http.StatusOK:
				cr.Lost++
				fmt.Fprintf(os.Stderr, "primacyload: LOST acknowledged put %s@%d (%d)\n", e.name, e.step, resp.StatusCode)
			case !bytes.Equal(body, e.body):
				cr.Mismatches++
				fmt.Fprintf(os.Stderr, "primacyload: CORRUPT entry %s@%d (%d bytes, want %d)\n", e.name, e.step, len(body), len(e.body))
			default:
				cr.Verified++
			}
			continue
		}
		// Unacknowledged: absence is correct; presence must be exact.
		switch resp.StatusCode {
		case http.StatusNotFound:
		case http.StatusOK:
			if bytes.Equal(body, e.body) {
				cr.UnackedRecovered++
			} else {
				cr.Mismatches++
				fmt.Fprintf(os.Stderr, "primacyload: CORRUPT unacked entry %s@%d surfaced\n", e.name, e.step)
			}
		default:
			return fmt.Errorf("auditing unacked %s@%d: status %d", e.name, e.step, resp.StatusCode)
		}
	}
	return nil
}
