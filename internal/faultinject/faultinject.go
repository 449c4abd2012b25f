// Package faultinject provides deterministic corruption mutators shared by
// the container-format tests: bit flips, truncations, zeroed regions, and
// insert/delete mutations, plus a fault-injecting solver wrapper. Every
// mutator copies its input, so a single encoded fixture can be mutated many
// ways inside one table-driven test.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"primacy/internal/solver"
)

// FlipBit returns a copy of data with the given bit (0 = LSB of byte 0)
// inverted. bit must be inside the buffer.
func FlipBit(data []byte, bit int) []byte {
	out := append([]byte(nil), data...)
	out[bit/8] ^= 1 << uint(bit%8)
	return out
}

// Truncate returns a copy of the first n bytes of data.
func Truncate(data []byte, n int) []byte {
	if n > len(data) {
		n = len(data)
	}
	return append([]byte(nil), data[:n]...)
}

// ZeroRegion returns a copy of data with n bytes starting at off cleared.
// The region is clipped to the buffer.
func ZeroRegion(data []byte, off, n int) []byte {
	out := append([]byte(nil), data...)
	for i := off; i < off+n && i < len(out); i++ {
		if i >= 0 {
			out[i] = 0
		}
	}
	return out
}

// Grow returns a copy of data with insert spliced in at off.
func Grow(data []byte, off int, insert []byte) []byte {
	if off > len(data) {
		off = len(data)
	}
	out := make([]byte, 0, len(data)+len(insert))
	out = append(out, data[:off]...)
	out = append(out, insert...)
	out = append(out, data[off:]...)
	return out
}

// Shrink returns a copy of data with n bytes removed at off. The removed
// region is clipped to the buffer.
func Shrink(data []byte, off, n int) []byte {
	if off > len(data) {
		off = len(data)
	}
	end := off + n
	if end > len(data) {
		end = len(data)
	}
	out := make([]byte, 0, len(data)-(end-off))
	out = append(out, data[:off]...)
	out = append(out, data[end:]...)
	return out
}

// Mutation is one named corruption of an encoded fixture.
type Mutation struct {
	Name string
	Data []byte
}

// Battery returns a deterministic corruption battery over data: single-bit
// flips every strideBits bits, truncations every strideBytes bytes, zeroed
// 4-byte regions, and one-byte grow/shrink splices. Decoders under test
// must reject (or decode identically, when the flip is provably harmless —
// which v2 containers never allow) every mutation without panicking.
func Battery(data []byte, strideBits, strideBytes int) []Mutation {
	if strideBits < 1 {
		strideBits = 1
	}
	if strideBytes < 1 {
		strideBytes = 1
	}
	var out []Mutation
	for bit := 0; bit < len(data)*8; bit += strideBits {
		out = append(out, Mutation{fmt.Sprintf("flip_bit_%d", bit), FlipBit(data, bit)})
	}
	for n := 0; n < len(data); n += strideBytes {
		out = append(out, Mutation{fmt.Sprintf("truncate_%d", n), Truncate(data, n)})
	}
	for off := 0; off < len(data); off += strideBytes {
		out = append(out, Mutation{fmt.Sprintf("zero_%d", off), ZeroRegion(data, off, 4)})
	}
	for off := 0; off < len(data); off += strideBytes {
		out = append(out, Mutation{fmt.Sprintf("grow_%d", off), Grow(data, off, []byte{0xA5})})
		out = append(out, Mutation{fmt.Sprintf("shrink_%d", off), Shrink(data, off, 1)})
	}
	return out
}

// ErrInjected is returned by Solver when a failure switch is armed.
var ErrInjected = errors.New("faultinject: injected solver fault")

// Solver wraps a registered compressor with on-demand failure switches, so
// codec tests can verify that solver errors propagate and that mangled
// solver output never decodes silently. Register it with solver.Register
// and select it by name through core.Options.
type Solver struct {
	// SolverName is the registry key for this instance.
	SolverName string
	// Inner performs the real work (defaults to zlib on first use).
	Inner solver.Compressor
	// FailCompress / FailDecompress force ErrInjected from the respective
	// direction.
	FailCompress   bool
	FailDecompress bool
	// Mangle flips a byte in the middle of each compressed output: the
	// bytes CompressTo appended, never the caller's prefix.
	Mangle bool
}

// New returns a fault-injecting wrapper around the named registered solver
// (the wrapper itself is registered under wrapperName).
func New(wrapperName, innerName string) (*Solver, error) {
	inner, err := solver.Get(innerName)
	if err != nil {
		return nil, err
	}
	s := &Solver{SolverName: wrapperName, Inner: inner}
	solver.Register(s)
	return s, nil
}

// Name implements solver.Compressor.
func (s *Solver) Name() string { return s.SolverName }

// CompressTo implements solver.Compressor with optional injected faults.
func (s *Solver) CompressTo(dst, src []byte) ([]byte, error) {
	if s.FailCompress {
		return nil, ErrInjected
	}
	out, err := s.Inner.CompressTo(dst, src)
	if err != nil {
		return nil, err
	}
	if n := len(out) - len(dst); s.Mangle && n > 8 {
		out[len(dst)+n/2] ^= 0xFF
	}
	return out, nil
}

// DecompressTo implements solver.Compressor with optional injected faults.
func (s *Solver) DecompressTo(dst, src []byte) ([]byte, error) {
	if s.FailDecompress {
		return nil, ErrInjected
	}
	return s.Inner.DecompressTo(dst, src)
}

// ErrTransient is the retryable fault returned by FlakyWriter / FlakyReader —
// the EAGAIN-class failure a staging transport produces under load.
var ErrTransient = errors.New("faultinject: transient I/O fault")

// FlakyWriter fails every FailEvery-th Write call with ErrTransient before
// writing anything (the sink consumes no bytes on a failed call, so a retry
// never duplicates data). With FailFrom > 0 every call after the first
// FailFrom successful writes fails permanently — a sink that dies mid-stream.
// Safe for concurrent use.
type FlakyWriter struct {
	W io.Writer
	// FailEvery makes every Nth call fail transiently (0 disables).
	FailEvery int
	// FailFrom kills the sink after N successful Write calls (0 disables).
	FailFrom int
	calls    atomic.Int64
	ok       atomic.Int64
}

// Write implements io.Writer with injected faults.
func (f *FlakyWriter) Write(p []byte) (int, error) {
	if f.FailFrom > 0 && f.ok.Load() >= int64(f.FailFrom) {
		return 0, fmt.Errorf("faultinject: sink dead after %d writes", f.FailFrom)
	}
	n := f.calls.Add(1)
	if f.FailEvery > 0 && n%int64(f.FailEvery) == 0 {
		return 0, ErrTransient
	}
	f.ok.Add(1)
	return f.W.Write(p)
}

// FlakyReader fails every FailEvery-th Read call with ErrTransient without
// consuming input, and with FailFrom > 0 dies permanently after FailFrom
// successful reads — a source that drops mid-segment. Safe for concurrent
// use.
type FlakyReader struct {
	R io.Reader
	// FailEvery makes every Nth call fail transiently (0 disables).
	FailEvery int
	// FailFrom kills the source after N successful Read calls (0 disables).
	FailFrom int
	calls    atomic.Int64
	ok       atomic.Int64
}

// Read implements io.Reader with injected faults.
func (f *FlakyReader) Read(p []byte) (int, error) {
	if f.FailFrom > 0 && f.ok.Load() >= int64(f.FailFrom) {
		return 0, fmt.Errorf("faultinject: source dead after %d reads", f.FailFrom)
	}
	n := f.calls.Add(1)
	if f.FailEvery > 0 && n%int64(f.FailEvery) == 0 {
		return 0, ErrTransient
	}
	f.ok.Add(1)
	return f.R.Read(p)
}

// SlowWriter delays every Write by Delay — the back-pressured sink that makes
// cancellation latency observable. Safe for concurrent use.
type SlowWriter struct {
	W     io.Writer
	Delay time.Duration
}

// Write implements io.Writer with an injected stall.
func (s *SlowWriter) Write(p []byte) (int, error) {
	time.Sleep(s.Delay)
	return s.W.Write(p)
}

// PanickySolver wraps a registered compressor and panics on selected calls —
// the worker-fault injector for testing that codec and pipeline paths
// contain panics instead of crashing the process. Register it with
// solver.Register and select it by name through core.Options. Safe for
// concurrent use (pipeline workers share one instance).
type PanickySolver struct {
	// SolverName is the registry key for this instance.
	SolverName string
	// Inner performs the real work.
	Inner solver.Compressor
	// PanicEvery makes every Nth CompressTo call panic (0 disables).
	PanicEvery int
	// PanicDecompress panics on every DecompressTo call.
	PanicDecompress bool
	calls           atomic.Int64
}

// NewPanicky returns a panic-injecting wrapper around the named registered
// solver (the wrapper itself is registered under wrapperName).
func NewPanicky(wrapperName, innerName string) (*PanickySolver, error) {
	inner, err := solver.Get(innerName)
	if err != nil {
		return nil, err
	}
	s := &PanickySolver{SolverName: wrapperName, Inner: inner}
	solver.Register(s)
	return s, nil
}

// Name implements solver.Compressor.
func (s *PanickySolver) Name() string { return s.SolverName }

// CompressTo implements solver.Compressor, panicking on selected calls.
func (s *PanickySolver) CompressTo(dst, src []byte) ([]byte, error) {
	if s.PanicEvery > 0 && s.calls.Add(1)%int64(s.PanicEvery) == 0 {
		panic("faultinject: injected compress panic")
	}
	return s.Inner.CompressTo(dst, src)
}

// DecompressTo implements solver.Compressor, panicking when armed.
func (s *PanickySolver) DecompressTo(dst, src []byte) ([]byte, error) {
	if s.PanicDecompress {
		panic("faultinject: injected decompress panic")
	}
	return s.Inner.DecompressTo(dst, src)
}
