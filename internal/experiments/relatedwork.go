package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"primacy/internal/core"
	"primacy/internal/datagen"
	"primacy/internal/hpcsim"
)

// RelatedWorkRow is one line of the Sec. V related-work reproduction: the
// Filgueira et al. (CLUSTER'08) finding that lzo-style compression in the
// I/O path improves execution time on integer data but can worsen it on
// floating-point data — the gap PRIMACY closes.
type RelatedWorkRow struct {
	Workload string
	Codec    string
	// Sigma is compressed/original.
	Sigma float64
	// NullMBs / CodecMBs are simulated end-to-end write throughputs.
	NullMBs, CodecMBs float64
}

// Gain is the end-to-end change vs the null case.
func (r RelatedWorkRow) Gain() float64 {
	if r.NullMBs == 0 {
		return 0
	}
	return r.CodecMBs/r.NullMBs - 1
}

// intWorkload builds collective-I/O-style integer data: monotone counters
// and small deltas, the case where byte-oriented LZ compression shines.
func intWorkload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n*8)
	v := uint64(1 << 20)
	for i := 0; i < n; i++ {
		v += uint64(rng.Intn(16))
		binary.BigEndian.PutUint64(out[i*8:], v)
	}
	return out
}

// relatedWorkWorkloads are the two workloads of the study, in row order.
var relatedWorkWorkloads = []string{"int64-counters", "float64-hard"}

// RelatedWorkRates is everything the study measures on one workload: vanilla
// lzo's and PRIMACY+zlib's ratio and codec rates. The rows are a function of
// these and of the Env alone.
type RelatedWorkRates struct {
	Workload string
	LZO      VanillaRates
	PRIMACY  PrimacyRates
}

// RelatedWorkStudy contrasts lzo and PRIMACY+zlib on integer vs hard float
// data over a fast-disk environment where codec time is not hidden by the
// disk (the regime of the related-work result).
func RelatedWorkStudy(n int, env Env) ([]RelatedWorkRow, error) {
	rates, err := MeasureRelatedWork(n, env)
	if err != nil {
		return nil, err
	}
	return relatedWork(rates, env)
}

// MeasureRelatedWork measures vanilla lzo and PRIMACY on the study's two
// workloads with n elements (0 = DefaultN).
func MeasureRelatedWork(n int, env Env) ([]RelatedWorkRates, error) {
	n = elemCount(n)
	spec, ok := datagen.ByName("obs_temp")
	if !ok {
		return nil, fmt.Errorf("related work: dataset missing")
	}
	data := [][]byte{intWorkload(n, 7), spec.GenerateBytes(n)}
	out := make([]RelatedWorkRates, 0, len(data))
	for i, raw := range data {
		r := RelatedWorkRates{Workload: relatedWorkWorkloads[i]}
		var err error
		if r.LZO, err = MeasureVanilla(raw, "lzo"); err != nil {
			return nil, fmt.Errorf("%s: %w", r.Workload, err)
		}
		if r.PRIMACY, err = MeasurePRIMACY(raw, core.Options{ChunkBytes: env.ChunkBytes}); err != nil {
			return nil, fmt.Errorf("%s: %w", r.Workload, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// relatedWork simulates the writes of each workload's measured codecs
// against the null case on a 100 MB/s disk. Like fig4 it reads no clock.
func relatedWork(rates []RelatedWorkRates, env Env) ([]RelatedWorkRow, error) {
	env.MuWriteBps = 100e6 // fast path: compression must pay for itself
	nullRes, err := simWriteWith(env, 1, 0, 0)
	if err != nil {
		return nil, err
	}
	null := nullRes.Throughput / 1e6
	rows := make([]RelatedWorkRow, 0, 2*len(rates))
	for _, r := range rates {
		lzRes, err := simWriteWith(env, r.LZO.Sigma, r.LZO.CompressBps, 0)
		if err != nil {
			return nil, err
		}
		prmRes, err := simWriteWith(env, r.PRIMACY.CompressedFraction, r.PRIMACY.CompressBps, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows,
			RelatedWorkRow{Workload: r.Workload, Codec: "lzo", Sigma: r.LZO.Sigma,
				NullMBs: null, CodecMBs: lzRes.Throughput / 1e6},
			RelatedWorkRow{Workload: r.Workload, Codec: "primacy", Sigma: r.PRIMACY.CompressedFraction,
				NullMBs: null, CodecMBs: prmRes.Throughput / 1e6})
	}
	return rows, nil
}

func simWriteWith(env Env, fraction, codecBps, precBps float64) (hpcsim.Result, error) {
	cfg := env.simConfig()
	cfg.CompressedFraction = fraction
	cfg.CodecBps = codecBps
	cfg.PrecBps = precBps
	return hpcsim.SimulateWrite(cfg)
}

// RenderRelatedWork prints the study.
func RenderRelatedWork(rows []RelatedWorkRow) string {
	out := fmt.Sprintf("%-16s %-8s | %7s | %10s %10s | %7s\n",
		"Workload", "codec", "sigma", "null MB/s", "codec MB/s", "gain")
	for _, r := range rows {
		out += fmt.Sprintf("%-16s %-8s | %7.3f | %10.2f %10.2f | %+6.1f%%\n",
			r.Workload, r.Codec, r.Sigma, r.NullMBs, r.CodecMBs, r.Gain()*100)
	}
	out += "\n(Filgueira et al. CLUSTER'08: plain LZ compression helps integer data and\n"
	out += " can hurt floating-point data; PRIMACY's preconditioning closes the gap)\n"
	return out
}

// RenderRelatedWorkRates prints the measured inputs behind the study.
func RenderRelatedWorkRates(rates []RelatedWorkRates) string {
	out := fmt.Sprintf("%-16s | %6s %7s %7s | %6s %7s %7s\n",
		"Workload", "lzoS", "lzoCTP", "lzoDTP", "prmS", "prmCTP", "prmDTP")
	for _, r := range rates {
		out += fmt.Sprintf("%-16s | %6.3f %7.1f %7.1f | %6.3f %7.1f %7.1f\n",
			r.Workload, r.LZO.Sigma, r.LZO.CompressBps/1e6, r.LZO.DecompressBps/1e6,
			r.PRIMACY.CompressedFraction, r.PRIMACY.CompressBps/1e6, r.PRIMACY.DecompressBps/1e6)
	}
	return out + "\n(S = compressed/raw; MB/s over raw bytes)\n"
}
