package main

import (
	"fmt"
	"math"
)

// The metric registry: every name the benchmark may print, with its unit and
// direction. BENCHMARK.json at the repository root lists exactly these (a
// test compares the two); README.md says which clock each one reads and
// which end-to-end metric each layer metric should move.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

var workloadNames = []string{"lib-kernels", "lib-dist", "serve-read", "serve-rw"}

// endToEnd are the metrics of the untraced run; every workload reports all of
// them. All read the host clock. The bounds are sized from the A/A runs in
// README.md: on the 2-core sandbox the host itself drifts by 10-15 % over
// tens of minutes, and a bound must clear both the run-to-run spread and the
// shift between two sets of runs to mean anything.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_ms_p50", "ms", "lower", 0.25},
	{"lat_ms_p95", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
}

var kernelCallNames = []string{
	"spmspv_er_f2", "spmspv_er_f20", "spmspv_rmat_f2", "spmspv_er_f2_msort",
	"apply_512k", "assign_512k", "ewisemult_512k", "spmv_er", "bfs_rmat",
}

var distCallNames = []string{
	"spmspv_dist_f2", "spmv_dist", "mxm_summa", "bfs_rmat", "sssp_er",
	"pagerank_rmat", "cc_rmat", "triangles_rmat", "bfs_rmat_chaos",
}

// callMetric names the gb rung of one call; the two workloads share the name
// bfs_rmat, so the workload's short name is part of it.
func callMetric(workload, call string) string {
	return fmt.Sprintf("gb.call_ms.%s.%s", workload[len("lib-"):], call)
}

// perLayer are the metrics of the traced run, by layer. Times are host
// medians unless the name says modeled; counts are exact.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// sparse
	add("s", "lower", "sparse.gen_er_s", "sparse.gen_rmat_s")
	add("ms", "lower", "sparse.mergesort_ms", "sparse.radixsort_ms", "sparse.to_dcsc_ms")
	// workpool
	add("us", "lower", "workpool.parfor_us")
	// core, shared memory
	add("ms", "lower", "core.spmspv_shm_msort_ms", "core.spmspv_bucket_ms")
	add("count", "lower", "core.spmspv_entries_visited")
	add("ms", "lower", "core.apply1_ms", "core.apply2_ms", "core.assign1_ms", "core.assign2_ms",
		"core.ewisemult_ms", "core.spmv_ms", "core.spgemm_local_ms")
	// core, distributed
	add("ms", "lower", "core.spmspv_dist_fine_ms", "core.spmspv_dist_bulk_ms", "core.spmspv_dist_auto_ms")
	add("count", "lower", "core.spmspv_gathered_elems", "core.spmspv_scattered_msgs")
	add("ms", "lower", "core.spmv_dist_ms", "core.spgemm_dist_ms", "core.flush_epoch_ms")
	add("us", "lower", "core.plan_fusion_us")
	// comm
	add("ms", "lower", "comm.sparse_row_allgather_ms", "comm.col_merge_scatter_ms", "comm.row_allgather_ms")
	add("us", "lower", "comm.allreduce_us")
	add("count", "lower", "comm.msgs_per_op", "comm.bytes_per_op", "comm.retries_per_op")
	// dist
	add("ms", "lower", "dist.mat_from_csr_ms")
	add("us", "lower", "dist.update_batch_us")
	add("ms", "lower", "dist.flush_ms")
	add("us", "lower", "dist.snapshot_us")
	// algorithms
	add("ms", "lower", "algorithms.bfs_ms", "algorithms.sssp_ms", "algorithms.pagerank_ms",
		"algorithms.cc_ms", "algorithms.triangles_ms", "algorithms.msbfs_ms")
	add("count", "lower", "algorithms.bfs_rounds", "algorithms.sssp_rounds", "algorithms.pagerank_rounds")
	add("ms", "lower", "algorithms.sssp_ms_per_round")
	// gb
	for _, c := range kernelCallNames {
		add("ms", "lower", callMetric("lib-kernels", c))
	}
	for _, c := range distCallNames {
		add("ms", "lower", callMetric("lib-dist", c))
	}
	add("ms", "lower", "gb.facade_overhead_ms")
	add("ratio", "lower", "gb.eager_over_fused", "gb.auto_over_best_pin")
	add("us", "lower", "gb.derive_us")
	add("kB", "lower", "gb.alloc_kb_per_op")
	add("count", "lower", "gb.allocs_per_op")
	// sim: the modeled clock next to the host clock
	add("ratio", "higher", "sim.model_over_real.spmspv_shm", "sim.model_over_real.spmspv_dist",
		"sim.model_over_real.bfs", "sim.model_over_real.pagerank")
	add("ms", "lower", "sim.modeled_ms_per_op.lib-kernels", "sim.modeled_ms_per_op.lib-dist",
		"sim.modeled_ms_per_op.serve")
	// serve
	for _, op := range probeOps {
		add("ms", "lower", "serve.query_ms_p50."+op)
	}
	for _, op := range probeOps[:4] {
		add("ms", "lower", "serve.query_ms_p99."+op)
	}
	for _, op := range probeOps {
		add("ms", "lower", "serve.overhead_ms."+op)
	}
	add("ms", "lower", "serve.lat_ms_p99")
	add("kB", "lower", "serve.resp_kb_per_query")
	add("ratio", "higher", "serve.batch_share")
	add("count", "higher", "serve.batch_mean_size")
	add("ratio", "lower", "serve.shed_share")
	add("ratio", "higher", "serve.slo_ok_share")
	add("ms", "lower", "serve.server_mean_ms", "serve.mutate_ms_p50", "serve.flush_ms_p50")
	add("1/s", "higher", "serve.epochs_per_s")
	add("ratio", "lower", "serve.stale_share")
	add("MB", "lower", "serve.peak_rss_mb")
	add("s", "lower", "serve.drain_s")
	// the benchmark itself and the host
	add("ms", "lower", "bench.gen_late_ms_p99", "bench.client_decode_ms_p50")
	add("ratio", "lower", "bench.trace_overhead_share")
	add("ms", "lower", "host.calib_ms_p50")
	add("ratio", "lower", "host.calib_spread")
	return out
}

// value is one reported metric value.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and refuses names outside the registry.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, vals: map[string]value{}}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	d, ok := m.defs[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the registry") // a bug in the benchmark
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // no sample behind it (a window too short for the op); JSON has no NaN
	}
	m.vals[name] = value{Value: v, Unit: d.Unit}
}

// missing lists the registered names that have no value yet.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.vals[name]; !ok {
			out = append(out, name)
		}
	}
	return out
}
