package main

import (
	"primacy/internal/core"
	"primacy/internal/precond"
)

// The benchmark's fixed tables: workloads, metrics with their regression
// bounds, sizes, the staging-model environment and the latency limits.
// BENCHMARK.json is generated from them (-manifest), so the contract file and
// the program cannot drift apart.

type workload struct {
	Name string
	Why  string
	// Datasets and Opts describe a codec workload; Served marks served_mix.
	Datasets []string
	Opts     core.Options
	Served   bool
	// Limits are the frozen per-class latency limits in ms behind
	// within_limit_share: four times the reference run's p50, rounded.
	Limits map[string]float64
}

var (
	hardSets = []string{"gts_chkp_zeon", "gts_phi_l", "num_control", "obs_temp", "msg_lu", "num_brain"}
	softSets = []string{"num_plasma", "obs_error", "flash_gamc", "obs_spitzer", "msg_sppm"}
	// servedSets are the base payloads of served_mix: half hard, half easy,
	// so the server's codec sees both solver-bound and ISOBAR-bound bodies.
	servedSets = []string{"obs_temp", "num_plasma", "num_control", "obs_error", "msg_lu", "flash_gamc", "gts_phi_l", "obs_spitzer"}
)

var workloads = []workload{
	{
		Name:     "hard_zlib",
		Why:      "paper default (zlib, 3 MB chunks) on six hard datasets: the solver is most of the time, so solver and allocation changes show and kernel changes should not",
		Datasets: hardSets,
		Opts:     core.Options{},
		Limits:   map[string]float64{"compress": 440, "decompress": 130},
	},
	{
		Name:     "hard_lzo",
		Why:      "same corpus under lzo: the preconditioner (split, ID map, ISOBAR partition) dominates, so kernel and memory-traffic changes show and solver-only changes should not",
		Datasets: hardSets,
		Opts:     core.Options{Solver: "lzo"},
		Limits:   map[string]float64{"compress": 180, "decompress": 110},
	},
	{
		Name:     "soft_select",
		Why:      "easy datasets with a-posteriori transform selection: the only path through precond, ISOBAR decides the ratio, and msg_sppm guards against tuning for hard data only",
		Datasets: softSets,
		Opts:     core.Options{Precond: core.PrecondOptions{Selection: precond.APosteriori}},
		Limits:   map[string]float64{"compress": 910, "decompress": 125},
	},
	{
		Name:   "served_mix",
		Why:    "closed-loop primacyd traffic (compress new and hot, decompress misses, fsynced archive put, get-after-put): the only path through server, fairshare, cache, durable and archive",
		Served: true,
		Limits: map[string]float64{"compress": 32, "hot": 3.5, "decompress": 11, "put": 9, "get": 300},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes are the knobs -quick shrinks. Workload shape (datasets, options,
// request mix, tenant rotation) never changes with them.
type sizes struct {
	HardN, SoftN int // doubles per dataset
	WarmPasses   int
	MinPasses    int // timed write passes, and as many read passes
	Setups       int // set-ups per untraced run; setup_s is their median
	TracePasses  int // replay and core passes of a traced codec run
	SidePasses   int // pipeline, stream and vanilla passes of a traced run
	TracePairs   int // telemetry on/off pairs

	PayloadVals int // doubles per served_mix payload
	Corpus      int // decompress containers
	MinBlocks   int // blocks per client
	DirectPuts  int // puts per direct durable measurement
}

var fullSizes = sizes{
	HardN: 2 << 20, SoftN: 1 << 20,
	WarmPasses: 2, MinPasses: 11, Setups: 3,
	TracePasses: 3, SidePasses: 2, TracePairs: 11,
	PayloadVals: 64 << 10, Corpus: 256, MinBlocks: 4, DirectPuts: 64,
}

var quickSizes = sizes{
	HardN: 96 << 10, SoftN: 96 << 10,
	WarmPasses: 1, MinPasses: 2, Setups: 1,
	TracePasses: 1, SidePasses: 1, TracePairs: 2,
	PayloadVals: 2 << 10, Corpus: 192, MinBlocks: 1, DirectPuts: 16,
}

// Served-mix shape. A block is 133 requests: the 35/15/30/12/8 mix at the
// smallest size that holds exactly one tenant's sixteen puts, so every block
// fills, reads back and seals one tenant and all blocks carry the same work.
const (
	blockNew      = 47 // compress of a never-seen payload
	blockHot      = 20 // compress of one of the eight pre-warmed base payloads: always a hit
	blockDecomp   = 40 // decompress by sweep over the corpus: always a miss
	blockPut      = 16
	blockGet      = 10
	blockRequests = blockNew + blockHot + blockDecomp + blockPut + blockGet
	tenantPuts    = blockPut // a client's tenant rotates after this many puts
	compactEvery  = 16
)

// putGetPattern is the order of a block's puts and gets: each get follows at
// least one put since the previous get. It is the same for every seed — the
// seed only decides where these requests fall among the others — so the
// archive size each get makes the server re-encode does not vary from run to
// run.
const putGetPattern = "PPGPGPPGPGPPGPGPPGPGPPGPPG"

// Staging environment of the Section III model for the staged_* gains: the
// break-even regime, where compute cost and ratio both matter.
const (
	envRho     = 8.0
	envThetaMB = 1200.0
	envMuWrite = 100.0
	envMuRead  = 200.0
)

// stagedGain is tau_PRIMACY / tau_null (Eqs. 3, 6 and 13) with the compute
// terms collapsed to C/mbps and the shipped fraction to 1/ratio.
func stagedGain(mbps, ratio, mu float64) float64 {
	wire := (1+envRho)/envThetaMB + envRho/mu // s per raw MB shipped uncompressed
	return wire / (1/mbps + wire/ratio)
}

type scope int

const (
	scopeAll    scope = iota // every workload
	scopeCodec               // the three codec workloads
	scopeServed              // served_mix only
	scopeSoft                // soft_select only
)

func (s scope) applies(w workload) bool {
	switch s {
	case scopeCodec:
		return !w.Served
	case scopeServed:
		return w.Served
	case scopeSoft:
		return w.Name == "soft_select"
	}
	return true
}

type metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
	Scope scope
}

// endToEnd is what a user of the codec or of primacyd sees. Metrics with
// scopeAll are defined on every workload and go to BENCHMARK.json's
// end_to_end; the served-only ones go to its per_layer list under "server."
// because the contract wants every end-to-end metric from every workload.
// failed_share travels as the contract line's failed/attempted.
//
// The bounds are set from this box's noise, not from the issue's table: the
// driver measures each metric on ten different seeds and refuses a benchmark
// whose inter-quartile spread exceeds the bound, and it later rejects an
// innocent change whose median drifts further than the bound. Ten-seed
// spreads measured here reach 6 % on timings in a quiet quarter of an hour
// and 15-19 % in a noisy one (memory-bound hard_lzo most of all), and 2 % on
// ratio, which varies with the generated data. Each bound is about three
// times the quiet spread and above the worst spread seen, 0.25 at most.
var endToEnd = []metric{
	{Name: "compress_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "decompress_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "ratio", Unit: "x", Better: "higher", Bound: 0.06},
	{Name: "staged_write_gain", Unit: "x", Better: "higher", Bound: 0.10},
	{Name: "staged_read_gain", Unit: "x", Better: "higher", Bound: 0.10},
	{Name: "goodput_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "compress_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "decompress_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "within_limit_share", Unit: "share", Better: "higher", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "put_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Scope: scopeServed},
	{Name: "get_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Scope: scopeServed},
	{Name: "disk_bytes_per_raw_byte", Unit: "B/B", Better: "lower", Bound: 0.06, Scope: scopeServed},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0},
}

// perLayer lists the layer metrics; a layer is a module of internal/. Which
// end-to-end metric each should move, on which workload, is written down in
// README.md.
var perLayer = []metric{
	{Name: "bytesplit.split_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "bytesplit.columnize_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "bytesplit.merge_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "bytesplit.decolumnize_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},

	{Name: "freq.build_index_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "freq.encode_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "freq.decode_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "freq.unique_seqs_per_chunk", Unit: "count", Better: "lower", Scope: scopeCodec},
	{Name: "freq.index_bytes_share", Unit: "share", Better: "lower", Scope: scopeCodec},

	{Name: "isobar.analyze_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "isobar.partition_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "isobar.unpartition_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "isobar.alpha2", Unit: "share", Better: "higher", Scope: scopeCodec},
	{Name: "isobar.fallback_share", Unit: "share", Better: "lower", Scope: scopeCodec},

	{Name: "solver.hi_compress_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "solver.lo_compress_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "solver.input_share", Unit: "share", Better: "lower", Scope: scopeCodec},
	{Name: "solver.decompress_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "solver.self_time_share", Unit: "share", Better: "lower", Scope: scopeCodec},
	{Name: "solver.sigma_ho", Unit: "share", Better: "lower", Scope: scopeCodec},
	{Name: "solver.sigma_lo", Unit: "share", Better: "lower", Scope: scopeCodec},
	{Name: "solver.vanilla_ratio", Unit: "x", Better: "higher", Scope: scopeCodec},
	{Name: "solver.vanilla_compress_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},

	{Name: "precond.pick_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeSoft},
	{Name: "precond.forward_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeSoft},
	{Name: "precond.inverse_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeSoft},
	{Name: "precond.predict_xor_share", Unit: "share", Better: "higher", Scope: scopeSoft},

	{Name: "checksum.crc_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},

	{Name: "core.compress_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "core.decompress_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "core.frame_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "core.replay_closure", Unit: "share", Better: "higher", Scope: scopeCodec},
	{Name: "core.replay_closure_decompress", Unit: "share", Better: "higher", Scope: scopeCodec},
	{Name: "core.unattributed_share", Unit: "share", Better: "lower", Scope: scopeCodec},
	{Name: "core.compress_allocs_per_mb", Unit: "1/MB", Better: "lower", Scope: scopeCodec},
	{Name: "core.decompress_allocs_per_mb", Unit: "1/MB", Better: "lower", Scope: scopeCodec},
	{Name: "core.alloc_bytes_per_mb", Unit: "B/MB", Better: "lower", Scope: scopeCodec},

	{Name: "pipeline.compress_speedup", Unit: "x", Better: "higher", Scope: scopeCodec},
	{Name: "pipeline.decompress_speedup", Unit: "x", Better: "higher", Scope: scopeCodec},
	{Name: "pipeline.overhead_share", Unit: "share", Better: "lower", Scope: scopeCodec},
	{Name: "pipeline.shards", Unit: "count", Better: "higher", Scope: scopeCodec},

	{Name: "stream.write_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},
	{Name: "stream.read_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeCodec},

	{Name: "model.write_residual", Unit: "share", Better: "lower", Scope: scopeCodec},

	{Name: "trace.enabled_overhead_share", Unit: "share", Better: "lower", Scope: scopeCodec},
	{Name: "bench.span_overhead_share", Unit: "share", Better: "lower", Scope: scopeCodec},

	{Name: "server.http_overhead_ms_p50", Unit: "ms", Better: "lower", Scope: scopeServed},
	{Name: "server.compress_hit_p50_ms", Unit: "ms", Better: "lower", Scope: scopeServed},
	{Name: "server.cache_hit_share", Unit: "share", Better: "higher", Scope: scopeServed},
	{Name: "server.compress_tail_ms", Unit: "ms", Better: "lower", Scope: scopeServed},
	{Name: "server.decompress_tail_ms", Unit: "ms", Better: "lower", Scope: scopeServed},
	{Name: "server.put_tail_ms", Unit: "ms", Better: "lower", Scope: scopeServed},
	{Name: "server.get_tail_ms", Unit: "ms", Better: "lower", Scope: scopeServed},
	{Name: "server.non200", Unit: "count", Better: "lower", Scope: scopeServed},
	{Name: "server.queue_wait_share", Unit: "share", Better: "lower", Scope: scopeServed},

	{Name: "fairshare.acquire_release_ns", Unit: "ns", Better: "lower", Scope: scopeServed},
	{Name: "fairshare.shed_share", Unit: "share", Better: "lower", Scope: scopeServed},

	{Name: "durable.put_ms_p50", Unit: "ms", Better: "lower", Scope: scopeServed},
	{Name: "durable.put_nofsync_ms_p50", Unit: "ms", Better: "lower", Scope: scopeServed},
	{Name: "durable.fsync_share", Unit: "share", Better: "lower", Scope: scopeServed},
	{Name: "durable.fsyncs_per_put", Unit: "1/op", Better: "lower", Scope: scopeServed},
	{Name: "durable.write_bytes_per_raw_byte", Unit: "B/B", Better: "lower", Scope: scopeServed},
	{Name: "durable.journal_bytes_per_raw_byte", Unit: "B/B", Better: "lower", Scope: scopeServed},
	{Name: "durable.compactions", Unit: "count", Better: "lower", Scope: scopeServed},
	{Name: "durable.compact_ms_p50", Unit: "ms", Better: "lower", Scope: scopeServed},

	{Name: "archive.build_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeServed},
	{Name: "archive.get_ns_per_byte", Unit: "ns/B", Better: "lower", Scope: scopeServed},
	{Name: "archive.encoded_bytes_per_returned_byte", Unit: "B/B", Better: "lower", Scope: scopeServed},
}

// manifestEndToEnd is the contract's end_to_end list: every workload reports
// every one of them, and none is ever 0.
func manifestEndToEnd() []metric {
	var out []metric
	for _, m := range endToEnd {
		if m.Scope == scopeAll && m.Name != "failed_share" {
			out = append(out, m)
		}
	}
	return out
}

// manifestPerLayer is the contract's per_layer list: the layer metrics plus
// the served-only end-to-end metrics as seen by the traced run.
func manifestPerLayer() []metric {
	out := append([]metric(nil), perLayer...)
	for _, m := range endToEnd {
		if m.Scope == scopeServed {
			m.Name = "server." + m.Name
			out = append(out, m)
		}
	}
	return out
}
