package core

import (
	"encoding/binary"
	"fmt"
	"runtime/debug"

	"primacy/internal/bytesplit"
	"primacy/internal/freq"
	"primacy/internal/precond"
	"primacy/internal/solver"
	"primacy/internal/trace"
)

// rawChunkFlag marks a chunk record that stores its payload uncompressed.
// It lives in the byte position of the has-index flag (0 = no index,
// 1 = index present), so pre-existing containers — which only ever wrote 0
// or 1 — decode exactly as before. The compressor emits raw records only in
// degraded mode, when a solver fault (error or panic) made the normal
// pipeline unusable for one chunk; failing the whole call would throw away
// every healthy chunk around it (the ISOBAR no-waste principle applied to
// faults instead of incompressibility).
const rawChunkFlag = 2

// rawChunkRecLen is the framing overhead of a raw chunk record: rawLen u32 +
// flag byte.
const rawChunkRecLen = 5

// PanicError is a panic recovered from a codec or worker path, converted
// into an ordinary error so one faulting chunk or shard cannot crash the
// process hosting the compressor.
type PanicError struct {
	// Op names the path that panicked (e.g. "compress chunk").
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: panic in %s: %v", e.Op, e.Value)
}

// precondState carries the per-call preconditioner machinery: the selector
// (one instance of every candidate transform), the forward-transform output
// buffer, and a second scratch so APosteriori trial compressions never
// clobber the live chunk's buffers. Nil when the preconditioner layer is
// disabled (classic chain, v2 container).
type precondState struct {
	sel  *precond.Selector
	tbuf []byte
	// trialSC is the scratch used by trial compressions of selection
	// samples. Kept separate from the Codec scratch: a trial runs before
	// the chunk's own compressChunk and must not alias its buffers.
	trialSC scratch
	sv      solver.Compressor
	opts    Options
	lay     bytesplit.Layout
}

// pick chooses the chunk's transform. The APosteriori trial hook runs the
// real downstream chain (compressChunk on the transformed sample, fresh
// index, no telemetry/trace) so the measured size is the genuine record
// size, not a proxy.
func (ps *precondState) pick(chunk []byte) (precond.Transform, error) {
	var trial precond.TrialFunc
	if ps.sel.Mode() == precond.APosteriori {
		trial = func(_ precond.Transform, sample []byte) (int, error) {
			enc, _, err := compressChunk(ps.trialSC.enc[:0], sample, len(sample), ps.sv, ps.opts, ps.lay, nil, &ps.trialSC, nil, trace.Span{}, -1)
			if err != nil {
				return 0, err
			}
			ps.trialSC.enc = enc
			return len(enc) - recSlot, nil
		}
	}
	return ps.sel.Pick(chunk, ps.lay.ElemBytes, trial)
}

// compressChunkSafe runs the preconditioner selection and forward transform
// as the precond stage, then compressChunk, converting a panic anywhere in
// that path into a *PanicError so the caller can degrade instead of crashing.
// ps may be nil (preconditioner disabled): the chunk then takes the classic
// chain and the record carries no transform byte (v1/v2 layout). An
// a-posteriori selector's trial encodes are part of the precond stage's time.
func compressChunkSafe(out, chunk []byte, rest int, sv solver.Compressor, opts Options, lay bytesplit.Layout, prev *freq.Index, sc *scratch, ps *precondState, m *coreMetrics, cs trace.Span) (enc []byte, ci chunkInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			enc, ci = nil, chunkInfo{}
			err = &PanicError{Op: "compress chunk", Value: r, Stack: debug.Stack()}
		}
	}()
	tid := -1
	payload := chunk
	var precSecs float64
	if ps != nil {
		st := openStage(cs, m, stPrecond)
		t, err := ps.pick(chunk)
		if err != nil {
			return nil, chunkInfo{}, err
		}
		tid = int(t.ID())
		// The chain transform is the identity — skip the copy.
		if t.ID() != precond.IDChain {
			buf, err := t.Forward(ps.tbuf[:0], chunk, lay.ElemBytes)
			if err != nil {
				return nil, chunkInfo{}, err
			}
			ps.tbuf = buf
			payload = buf
		}
		precSecs = st.end(nil)
	}
	enc, ci, err = compressChunk(out, payload, rest, sv, opts, lay, prev, sc, m, cs, tid)
	ci.precSecs += precSecs
	return enc, ci, err
}

// appendRawChunkRecord appends chunk to out as a degraded raw-passthrough
// record behind its slot: rawLen u32 | rawChunkFlag | chunk bytes.
func appendRawChunkRecord(out, chunk []byte, rest int) []byte {
	out = openRecord(out, rawChunkRecLen+len(chunk), len(chunk), rest)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(chunk)))
	out = append(out, rawChunkFlag)
	return append(out, chunk...)
}
