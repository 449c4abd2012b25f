// Package precond is the pluggable preconditioner layer of the PRIMACY
// codec. The paper's thesis is that the *choice* of preconditioner is what
// turns incompressible streams compressible; this package makes that choice
// explicit per chunk instead of hardwiring one transform chain.
//
// A Transform is a reversible, length-preserving pre-pass applied to a
// chunk's element bytes before the classic bytesplit→freq-map→ISOBAR chain
// runs. Transforms are registered in a factory registry keyed by a stable
// wire TransformID (mirroring the mappraiser preconditioner enum pattern:
// one constructor per enum value plus apply hooks), so new transforms drop
// in without touching the codec, and the v3 container can name the
// transform each chunk was written with.
//
// A Selector picks the transform for each chunk in one of three modes:
//
//   - Fixed: always the configured transform (today's behavior).
//   - APriori: a cheap sampled byte-column classifier estimates each
//     candidate's post-transform compressibility, ISOBAR-style, and the
//     best estimate wins without running any solver.
//   - APosteriori: each candidate trial-compresses a sample of the chunk
//     through the full chain and the smallest encoding wins — Pcodec-style
//     per-chunk a-posteriori mode detection.
package precond

import (
	"fmt"
	"sort"
	"sync"
)

// TransformID is the stable wire identifier of a transform. It is written
// into every v3 chunk record, so values must never be renumbered.
type TransformID uint8

const (
	// IDChain is the identity pre-pass: the chunk reaches the classic
	// bytesplit→freq-map→ISOBAR chain untouched (the paper's pipeline).
	IDChain TransformID = 0
	// IDPredictXOR runs the FPC-style FCM/DFCM value predictors over the
	// elements and XORs each value with its prediction before the byte
	// split, so well-predicted streams reach the chain as near-zero
	// residuals (lifted from internal/fpc, Burtscher & Ratanaworabhan). It
	// takes elements of up to 8 bytes and refuses wider ones.
	IDPredictXOR TransformID = 1
)

// Transform is one reversible preconditioning pre-pass. Implementations
// carry their own scratch and predictor state, so a Transform instance is
// not safe for concurrent use — obtain one per worker via New.
type Transform interface {
	// ID is the stable wire identifier stored in v3 chunk records.
	ID() TransformID
	// Name is the human-readable registry name (telemetry, stats, CLI).
	Name() string
	// Forward applies the transform to src (a whole chunk of elemBytes-wide
	// elements), appending the same number of bytes to dst and returning the
	// extended slice. Pass dst[:0]-style scratch for allocation-free reuse.
	// Each call is self-contained: chunk records must decode independently.
	Forward(dst, src []byte, elemBytes int) ([]byte, error)
	// Inverse reverses Forward, appending to dst as Forward does. src may be
	// the tail of dst, dst[len(dst):len(dst)+len(src)]: the inverse then
	// runs in place, over the bytes it reads.
	Inverse(dst, src []byte, elemBytes int) ([]byte, error)
	// CostEstimate cheaply predicts the post-transform compressed fraction
	// of sample (lower is better) without running a solver — the a-priori
	// selection hook. Estimates are comparable across transforms.
	CostEstimate(sample []byte, elemBytes int) (float64, error)
}

// Constructor builds a fresh Transform instance with its own scratch.
type Constructor func() Transform

type registration struct {
	name string
	ctor Constructor
}

var (
	regMu    sync.RWMutex
	registry = map[TransformID]registration{}
)

// Register adds a transform constructor under a stable ID and name.
// Registering a duplicate ID or name panics: wire IDs are format surface.
func Register(id TransformID, name string, ctor Constructor) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[id]; ok {
		panic(fmt.Sprintf("precond: transform ID %d registered twice", id))
	}
	for _, r := range registry {
		if r.name == name {
			panic(fmt.Sprintf("precond: transform name %q registered twice", name))
		}
	}
	registry[id] = registration{name: name, ctor: ctor}
}

// New instantiates the transform registered under id.
func New(id TransformID) (Transform, error) {
	regMu.RLock()
	r, ok := registry[id]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("precond: unknown transform ID %d", id)
	}
	return r.ctor(), nil
}

// Name returns the registry name for id ("" when unregistered).
func Name(id TransformID) string {
	regMu.RLock()
	defer regMu.RUnlock()
	return registry[id].name
}

// ByName instantiates the transform registered under name.
func ByName(name string) (Transform, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	for id, r := range registry {
		if r.name == name {
			return registry[id].ctor(), nil
		}
	}
	return nil, fmt.Errorf("precond: unknown transform %q", name)
}

// IDs returns every registered TransformID in ascending order — the default
// candidate set for the auto-selecting modes.
func IDs() []TransformID {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]TransformID, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func init() {
	Register(IDChain, "chain", func() Transform { return &chainTransform{} })
	Register(IDPredictXOR, "predictxor", func() Transform { return new(predictXOR) })
}
