// Checkpoint: simulate a checkpoint/restart cycle — the paper's motivating
// workload. A simulation writes periodic state snapshots; PRIMACY compresses
// them in-situ across all cores, and a restart decompresses the latest one.
// The example compares PRIMACY against vanilla whole-buffer zlib on the same
// snapshots.
package main

import (
	"bytes"
	"compress/zlib"
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"time"

	"primacy"
)

const (
	gridSize  = 192 // 192^2 doubles per field
	numFields = 4
	steps     = 3
)

// simState is a toy turbulent field: a smooth component plus noise that
// accumulates over timesteps, like truncation error in a real solver.
type simState struct {
	fields [numFields][]float64
	step   int
}

func newSim() *simState {
	s := &simState{}
	for f := range s.fields {
		s.fields[f] = make([]float64, gridSize*gridSize)
	}
	s.advance()
	return s
}

func (s *simState) advance() {
	s.step++
	for f := range s.fields {
		for i := range s.fields[f] {
			x, y := i%gridSize, i/gridSize
			smooth := math.Sin(float64(x)/17+float64(s.step)) * math.Cos(float64(y)/23)
			// Low-order bits behave like accumulated roundoff noise.
			noise := math.Float64frombits(uint64(i*2654435761+s.step*40503) * 0x9E3779B97F4A7C15)
			_, frac := math.Modf(math.Abs(noise))
			s.fields[f][i] = 100*(1+smooth) + frac*1e-8
		}
	}
}

// snapshot serializes all fields big-endian.
func (s *simState) snapshot() []byte {
	var buf bytes.Buffer
	for f := range s.fields {
		for _, v := range s.fields[f] {
			bits := math.Float64bits(v)
			var b [8]byte
			for k := 0; k < 8; k++ {
				b[k] = byte(bits >> uint(56-8*k))
			}
			buf.Write(b[:])
		}
	}
	return buf.Bytes()
}

func main() {
	sim := newSim()
	var lastCheckpoint []byte
	var lastRaw []byte

	fmt.Printf("checkpointing %d steps of %d fields on a %dx%d grid\n",
		steps, numFields, gridSize, gridSize)
	for step := 0; step < steps; step++ {
		raw := sim.snapshot()

		t0 := time.Now()
		prm, err := primacy.ParallelCompress(context.Background(), raw, primacy.ParallelOptions{
			Core: primacy.Options{ChunkBytes: 256 << 10},
		})
		if err != nil {
			log.Fatal(err)
		}
		prmTime := time.Since(t0)

		t0 = time.Now()
		zl := zlibCompress(raw)
		zlibTime := time.Since(t0)

		fmt.Printf("step %d: %7d bytes | PRIMACY %7d (%.2fx, %5.1f MB/s) | zlib %7d (%.2fx, %5.1f MB/s)\n",
			step, len(raw),
			len(prm), float64(len(raw))/float64(len(prm)), mbps(len(raw), prmTime),
			len(zl), float64(len(raw))/float64(len(zl)), mbps(len(raw), zlibTime))

		lastCheckpoint = prm
		lastRaw = raw
		sim.advance()
	}

	// Restart: decode the newest checkpoint and verify bit-exactness.
	t0 := time.Now()
	restored, err := primacy.ParallelDecompress(context.Background(), lastCheckpoint, primacy.ParallelOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(restored, lastRaw) {
		log.Fatal("restart state differs from checkpointed state")
	}
	fmt.Printf("restart: %d bytes restored bit-exactly in %v (%.1f MB/s)\n",
		len(restored), time.Since(t0).Round(time.Millisecond), mbps(len(restored), time.Since(t0)))
}

func zlibCompress(raw []byte) []byte {
	var buf bytes.Buffer
	w := zlib.NewWriter(&buf)
	if _, err := w.Write(raw); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	// Sanity: it must round-trip too.
	r, err := zlib.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := io.ReadAll(r); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

func mbps(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds() / 1e6
}
