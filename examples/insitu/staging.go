// The staging transport is a working, concurrent implementation of the paper's
// write path (the live counterpart of internal/hpcsim's simulation): ρ
// compute-node goroutines each encode their chunk in parallel, ship it over
// a shared rate-limited collective link to an I/O-node goroutine, which
// writes a framed timestep record through a rate-limited disk. Reads run the
// inverse pipeline. Rates use real wall-clock throttling, so measured
// end-to-end throughputs behave like the paper's micro-benchmarks: with a
// slow disk, shipping fewer bytes wins even after paying for compression.

package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"primacy/internal/core"
	"primacy/internal/solver"
)

// Codec is the per-chunk transform applied at the compute nodes.
type Codec interface {
	Name() string
	Encode(chunk []byte) ([]byte, error)
	Decode(enc []byte) ([]byte, error)
}

// NullCodec ships raw bytes (the paper's null case).
type NullCodec struct{}

// Name implements Codec.
func (NullCodec) Name() string { return "null" }

// Encode implements Codec.
func (NullCodec) Encode(chunk []byte) ([]byte, error) {
	return append([]byte(nil), chunk...), nil
}

// Decode implements Codec.
func (NullCodec) Decode(enc []byte) ([]byte, error) {
	return append([]byte(nil), enc...), nil
}

// PrimacyCodec runs the PRIMACY pipeline per chunk.
type PrimacyCodec struct {
	Opts core.Options
}

// Name implements Codec.
func (PrimacyCodec) Name() string { return "primacy" }

// Encode implements Codec.
func (c PrimacyCodec) Encode(chunk []byte) ([]byte, error) {
	return core.Compress(chunk, c.Opts)
}

// Decode implements Codec.
func (c PrimacyCodec) Decode(enc []byte) ([]byte, error) {
	return core.Decompress(enc)
}

// VanillaCodec runs a registered solver on the whole chunk.
type VanillaCodec struct {
	Solver string
}

// Name implements Codec.
func (c VanillaCodec) Name() string { return c.Solver }

// Encode implements Codec.
func (c VanillaCodec) Encode(chunk []byte) ([]byte, error) {
	sv, err := solver.Get(c.Solver)
	if err != nil {
		return nil, err
	}
	return sv.Compress(chunk)
}

// Decode implements Codec.
func (c VanillaCodec) Decode(enc []byte) ([]byte, error) {
	sv, err := solver.Get(c.Solver)
	if err != nil {
		return nil, err
	}
	return sv.Decompress(enc)
}

// Config describes one staging group.
type Config struct {
	// Rho is the number of compute-node goroutines.
	Rho int
	// LinkBps rate-limits the shared collective link (0 = unlimited).
	LinkBps float64
	// DiskBps rate-limits the I/O node's storage writes (0 = unlimited).
	DiskBps float64
	// Codec transforms chunks at the compute nodes (nil = NullCodec).
	Codec Codec
}

func (c Config) codec() Codec {
	if c.Codec == nil {
		return NullCodec{}
	}
	return c.Codec
}

func (c Config) validate() error {
	if c.Rho < 1 {
		return fmt.Errorf("staging: rho %d < 1", c.Rho)
	}
	if c.LinkBps < 0 || c.DiskBps < 0 {
		return fmt.Errorf("staging: negative rate")
	}
	return nil
}

// Report summarizes one timestep write or read.
type Report struct {
	// Elapsed is wall-clock time for the whole timestep.
	Elapsed time.Duration
	// RawBytes is the uncompressed payload moved.
	RawBytes int
	// ShippedBytes crossed the link and disk.
	ShippedBytes int
	// Throughput is RawBytes/Elapsed in bytes/second.
	Throughput float64
}

// throttle sleeps long enough that n bytes respect rate bps. It keeps a
// running deficit so many small writes aggregate correctly.
type throttle struct {
	mu     sync.Mutex
	bps    float64
	nextOK time.Time
}

func newThrottle(bps float64) *throttle { return &throttle{bps: bps} }

func (t *throttle) take(n int) {
	if t.bps <= 0 || n <= 0 {
		return
	}
	d := time.Duration(float64(n) / t.bps * float64(time.Second))
	t.mu.Lock()
	now := time.Now()
	start := t.nextOK
	if start.Before(now) {
		start = now
	}
	t.nextOK = start.Add(d)
	wait := t.nextOK.Sub(now)
	t.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

const timestepMagic = "PST1"

// WriteTimestep encodes rho chunks concurrently, ships them through the
// shared link, and writes one framed timestep record to dst:
//
//	"PST1" | u32 rho | rho × (u32 rawLen | u32 encLen | enc)
//
// Records are written in node order so reads are deterministic.
func WriteTimestep(cfg Config, chunks [][]byte, dst io.Writer) (Report, error) {
	var rep Report
	if err := cfg.validate(); err != nil {
		return rep, err
	}
	if len(chunks) != cfg.Rho {
		return rep, fmt.Errorf("staging: %d chunks for rho=%d", len(chunks), cfg.Rho)
	}
	codec := cfg.codec()
	link := newThrottle(cfg.LinkBps)
	disk := newThrottle(cfg.DiskBps)
	start := time.Now()

	type shipped struct {
		node int
		raw  int
		enc  []byte
		err  error
	}
	results := make(chan shipped, cfg.Rho)
	var wg sync.WaitGroup
	for node, chunk := range chunks {
		wg.Add(1)
		go func(node int, chunk []byte) {
			defer wg.Done()
			enc, err := codec.Encode(chunk)
			if err != nil {
				results <- shipped{node: node, err: err}
				return
			}
			link.take(len(enc)) // contend for the shared collective link
			results <- shipped{node: node, raw: len(chunk), enc: enc}
		}(node, chunk)
	}
	go func() { wg.Wait(); close(results) }()

	// I/O node: collect, order, write through the disk throttle.
	collected := make([]shipped, 0, cfg.Rho)
	for s := range results {
		if s.err != nil {
			return rep, s.err
		}
		collected = append(collected, s)
	}
	sort.Slice(collected, func(a, b int) bool { return collected[a].node < collected[b].node })

	if _, err := dst.Write([]byte(timestepMagic)); err != nil {
		return rep, err
	}
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(cfg.Rho))
	if _, err := dst.Write(u32[:]); err != nil {
		return rep, err
	}
	for _, s := range collected {
		binary.LittleEndian.PutUint32(u32[:], uint32(s.raw))
		if _, err := dst.Write(u32[:]); err != nil {
			return rep, err
		}
		binary.LittleEndian.PutUint32(u32[:], uint32(len(s.enc)))
		if _, err := dst.Write(u32[:]); err != nil {
			return rep, err
		}
		disk.take(len(s.enc))
		if _, err := dst.Write(s.enc); err != nil {
			return rep, err
		}
		rep.RawBytes += s.raw
		rep.ShippedBytes += len(s.enc)
	}
	rep.Elapsed = time.Since(start)
	if rep.Elapsed > 0 {
		rep.Throughput = float64(rep.RawBytes) / rep.Elapsed.Seconds()
	}
	return rep, nil
}

// ErrCorrupt indicates a malformed timestep record.
var ErrCorrupt = errors.New("staging: corrupt timestep record")

// ReadTimestep reads one timestep record and decodes the chunks
// concurrently (the restart path).
func ReadTimestep(cfg Config, src io.Reader) ([][]byte, Report, error) {
	var rep Report
	if err := cfg.validate(); err != nil {
		return nil, rep, err
	}
	codec := cfg.codec()
	disk := newThrottle(cfg.DiskBps)
	link := newThrottle(cfg.LinkBps)
	start := time.Now()

	var m [4]byte
	if _, err := io.ReadFull(src, m[:]); err != nil {
		return nil, rep, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if string(m[:]) != timestepMagic {
		return nil, rep, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	var u32 [4]byte
	if _, err := io.ReadFull(src, u32[:]); err != nil {
		return nil, rep, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rho := int(binary.LittleEndian.Uint32(u32[:]))
	if rho != cfg.Rho {
		return nil, rep, fmt.Errorf("%w: record rho %d != config rho %d", ErrCorrupt, rho, cfg.Rho)
	}
	type encoded struct {
		raw int
		enc []byte
	}
	records := make([]encoded, rho)
	for i := range records {
		if _, err := io.ReadFull(src, u32[:]); err != nil {
			return nil, rep, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		records[i].raw = int(binary.LittleEndian.Uint32(u32[:]))
		if _, err := io.ReadFull(src, u32[:]); err != nil {
			return nil, rep, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		encLen := binary.LittleEndian.Uint32(u32[:])
		if encLen > 1<<30 {
			return nil, rep, fmt.Errorf("%w: absurd chunk %d", ErrCorrupt, encLen)
		}
		enc, err := io.ReadAll(io.LimitReader(src, int64(encLen)))
		if err != nil || uint32(len(enc)) != encLen {
			return nil, rep, fmt.Errorf("%w: truncated chunk", ErrCorrupt)
		}
		disk.take(len(enc))
		link.take(len(enc))
		records[i].enc = enc
	}
	// Compute nodes decode in parallel.
	out := make([][]byte, rho)
	errs := make([]error, rho)
	var wg sync.WaitGroup
	for i, r := range records {
		wg.Add(1)
		go func(i int, r encoded) {
			defer wg.Done()
			dec, err := codec.Decode(r.enc)
			if err == nil && len(dec) != r.raw {
				err = fmt.Errorf("%w: chunk %d decoded to %d bytes, want %d",
					ErrCorrupt, i, len(dec), r.raw)
			}
			out[i], errs[i] = dec, err
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, rep, err
		}
	}
	for i := range records {
		rep.RawBytes += records[i].raw
		rep.ShippedBytes += len(records[i].enc)
	}
	rep.Elapsed = time.Since(start)
	if rep.Elapsed > 0 {
		rep.Throughput = float64(rep.RawBytes) / rep.Elapsed.Seconds()
	}
	return out, rep, nil
}
