package main

// decl declares one metric: its unit, which direction is better, and — for
// end-to-end metrics — the share of the base median by which it may worsen
// before -compare (and the driver, for the universal ones) calls it a
// regression. BENCHMARK.json repeats this table; smoke_test.go keeps the
// two in step.
type decl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// universal are the end-to-end metrics every workload reports on every run
// (BENCHMARK.json end_to_end). rounds_per_s is the workload's global-round
// throughput through whichever executor it drives: Trainer.Step on the
// three core workloads, fednode.RunJob on net-loopback, felserve on
// serve-fanout.
//
// The bounds are what this host can resolve, not what one would wish for:
// ten runs on ten seeds spread rounds_per_s by up to 8 % of the median after
// host-speed normalisation, and its median drifted by up to 20 % between
// sweeps an hour apart (bound 25 %, the contract's ceiling); peak_rss_mb
// spreads by up to 6 % (15 %); final_accuracy — exact on one seed, but a
// property of the population the seed draws — by up to 9 % (20 %).
var universal = []decl{
	{mSetup, "s", lower, 0.25},
	{mRounds, "rounds/s", higher, 0.25},
	{mAccuracy, "fraction", higher, 0.20},
	{mPeakRSS, "MB", lower, 0.15},
}

// specific are the end-to-end metrics that cannot be end_to_end in
// BENCHMARK.json: four that only one workload can produce (the contract
// makes every workload report every end_to_end metric), and cost_per_round,
// which every workload reports but which is exact on one seed and varies by
// up to 9 % across seeds, so no relative bound fits it. They are measured
// untraced like the universal ones, BENCHMARK.json carries them among
// per_layer (no bound there), and -compare applies these bounds. A bound of
// 0 means the value must repeat exactly on the same seed.
var specific = []decl{
	{mCostRound, "cost", lower, 0},
	{mSpeedup, "x", higher, 0.15},
	{mTimeTarget, "s", lower, 0.10},
	{mCostTarget, "cost", lower, 0},
	{mWireBytes, "bytes", lower, 0},
	{mVersions, "versions/s", higher, 0.10},
}

// perLayer are the single-layer metrics of a traced run, named
// <package>.<metric>. A workload that does not exercise a layer reports 0
// for it.
var perLayer = []decl{
	{Name: "tensor.matmul_ns", Unit: "ns", Better: lower},
	{Name: "tensor.matmul_at_ns", Unit: "ns", Better: lower},
	{Name: "tensor.matmul_bt_ns", Unit: "ns", Better: lower},
	{Name: "tensor.gflops", Unit: "GFLOP/s", Better: higher},
	{Name: "tensor.matmul_small_ns", Unit: "ns", Better: lower},
	{Name: "tensor.axpby_ns_per_mparam", Unit: "ns", Better: lower},
	{Name: "nn.step_ns", Unit: "ns", Better: lower},
	{Name: "nn.step_allocs", Unit: "count", Better: lower},
	{Name: "core.local_train_s", Unit: "s", Better: lower},
	{Name: "core.group_aggregate_s", Unit: "s", Better: lower},
	{Name: "core.global_aggregate_s", Unit: "s", Better: lower},
	{Name: "core.eval_s", Unit: "s", Better: lower},
	{Name: "core.step_self_s", Unit: "s", Better: lower},
	{Name: "core.step_allocs_per_round", Unit: "count", Better: lower},
	{Name: "core.step_alloc_kb_per_round", Unit: "KB", Better: lower},
	{Name: "core.new_trainer_s", Unit: "s", Better: lower},
	{Name: "core.evaluate_ns_per_sample", Unit: "ns", Better: lower},
	{Name: "core.local_update_ns_per_sample", Unit: "ns", Better: lower},
	{Name: "core.export_state_ns", Unit: "ns", Better: lower},
	{Name: "grouping.form_all_s", Unit: "s", Better: lower},
	{Name: "grouping.form_ns_per_client", Unit: "ns", Better: lower},
	{Name: "grouping.groups", Unit: "count", Better: higher},
	{Name: "grouping.mean_cov", Unit: "cov", Better: lower},
	{Name: "sampling.probabilities_ns", Unit: "ns", Better: lower},
	{Name: "sampling.sample_ns", Unit: "ns", Better: lower},
	{Name: "sampling.weights_ns", Unit: "ns", Better: lower},
	{Name: "data.materialize_ns_per_sample", Unit: "ns", Better: lower},
	{Name: "data.virtual_clients_s", Unit: "s", Better: lower},
	{Name: "secagg.mask_ns", Unit: "ns", Better: lower},
	{Name: "secagg.aggregate_ns", Unit: "ns", Better: lower},
	{Name: "secagg.mask_streams", Unit: "count", Better: lower},
	{Name: "wire.encode_ns", Unit: "ns", Better: lower},
	{Name: "wire.decode_ns", Unit: "ns", Better: lower},
	{Name: "wire.mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "wire.frame_bytes", Unit: "bytes", Better: lower},
	{Name: "wire.decode_allocs", Unit: "count", Better: lower},
	{Name: "fednode.round_p50_ms", Unit: "ms", Better: lower},
	{Name: "fednode.round_p95_ms", Unit: "ms", Better: lower},
	{Name: "fednode.group_round_s", Unit: "s", Better: lower},
	{Name: "fednode.local_train_s", Unit: "s", Better: lower},
	{Name: "fednode.wait_frac", Unit: "fraction", Better: lower},
	{Name: "fednode.frames_per_round", Unit: "count", Better: lower},
	{Name: "fednode.dropouts", Unit: "count", Better: lower},
	{Name: "fednode.recoveries", Unit: "count", Better: lower},
	{Name: "fednode.dial_retries", Unit: "count", Better: lower},
	{Name: "felserve.ckpt_encode_ns", Unit: "ns", Better: lower},
	{Name: "felserve.ckpt_save_ns", Unit: "ns", Better: lower},
	{Name: "felserve.ckpt_load_ns", Unit: "ns", Better: lower},
	{Name: "felserve.ckpt_bytes", Unit: "bytes", Better: lower},
	{Name: "felserve.version_gap_p50_ms", Unit: "ms", Better: lower},
	{Name: "felserve.version_gap_p99_ms", Unit: "ms", Better: lower},
	{Name: "felserve.delivered_frac", Unit: "fraction", Better: higher},
	{Name: "felserve.overhead_frac", Unit: "fraction", Better: lower},
	{Name: "felserve.admit_s", Unit: "s", Better: lower},
	{Name: "felserve.drain_s", Unit: "s", Better: lower},
	{Name: "metrics.trace_overhead_frac", Unit: "fraction", Better: lower},
	{Name: "bench.attributed_frac", Unit: "fraction", Better: higher},
}

// layerDecls is BENCHMARK.json's per_layer list: the workload-specific
// end-to-end metrics followed by the layer metrics.
func layerDecls() []decl {
	return append(append([]decl(nil), specific...), perLayer...)
}
