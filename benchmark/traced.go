package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// The traced run. Every traced run reports every per-layer metric, so it
// always visits all three sections — the lib-kernels call table, the lib-dist
// call table and a gbserve session — and then the ladder; the selected
// workload gets the long window, the spans and the trace-overhead comparison,
// the others a short one.

// Shares of -seconds.
const (
	selectedOnShare  = 0.30 // the selected workload, spans on
	selectedOffShare = 0.10 // the same, spans off (the overhead baseline)
	otherShare       = 0.10 // every other section
	tableShare       = 0.08 // each of the ladder's two direct call tables
	rungsShare       = 0.14 // the ladder's stand-alone rungs together
	ladderRungs      = 50   // about how many of those there are
)

// libSection runs one library call table for a traced run.
type libSection struct {
	w       *libWorkload
	warm    *libResult
	on, off *libResult // spans on and off; off is nil unless this is the selected workload
}

func runLibSection(cfg runConfig, name string, tr *spanLog) (*libSection, error) {
	w, _, err := setupLib(cfg, name)
	if err != nil {
		return nil, err
	}
	sec := &libSection{w: w, warm: warmLib(w)}
	share := func(f float64) time.Duration { return time.Duration(f * float64(cfg.seconds)) }
	if cfg.workload == name {
		sec.off = runLib(w, share(selectedOffShare), false, nil, nil)
		sec.on = runLib(w, share(selectedOnShare), false, tr, nil)
	} else {
		sec.on = runLib(w, share(otherShare), false, tr, nil)
	}
	return sec, nil
}

// report sets the section's gb rungs and modeled-clock metrics, and returns
// the gb median per call metric.
func (sec *libSection) report(m *metricSet) map[string]float64 {
	gbMS := map[string]float64{}
	for k, c := range sec.w.calls {
		name := callMetric(sec.w.name, c.name)
		gbMS[name] = median(sec.on.perCall[k].ms)
		m.set(name, gbMS[name])
	}
	m.set("sim.modeled_ms_per_op."+sec.w.name, 1e3*sec.on.modeledS/float64(max(len(sec.on.lat), 1)))
	return gbMS
}

// modelOverReal is modeled seconds over host seconds for one call.
func (sec *libSection) modelOverReal(call string) float64 {
	for k, c := range sec.w.calls {
		if c.name == call {
			host := 0.0
			for _, ms := range sec.on.perCall[k].ms {
				host += ms / 1e3
			}
			return sec.on.perCall[k].modeledS / host
		}
	}
	return math.NaN()
}

// accountFor logs how much of the traced window the per-call rungs explain.
func (sec *libSection) accountFor() {
	sum := 0.0
	for k := range sec.w.calls {
		sum += median(sec.on.perCall[k].ms) * float64(len(sec.on.perCall[k].ms))
	}
	logf("%s: sum(gb.call_ms x calls) = %.0f ms of a %.0f ms window (%.1f%%)",
		sec.w.name, sum, msOf(sec.on.busy), 100*sum/msOf(sec.on.busy))
}

func meanOpMS(r *libResult) float64 { return msOf(r.busy) / float64(max(r.attempted, 1)) }

// tracedServePhases lays out the serve section: a read-only open loop and a
// read+write one, the selected variant long and preceded by its spans-off
// twin.
func tracedServePhases(cfg runConfig) []phase {
	share := func(f float64) time.Duration { return time.Duration(f * float64(cfg.seconds)) }
	read := func(f float64, spans bool) phase {
		return phase{kind: openPhase, dur: share(f), rate: openRate, spans: spans}
	}
	write := func(f float64, spans bool) phase {
		return phase{kind: openPhase, dur: share(f), rate: rwReadRate, writes: true, spans: spans}
	}
	switch cfg.workload {
	case "serve-read":
		return []phase{read(selectedOffShare, false), read(selectedOnShare, true), write(otherShare, true)}
	case "serve-rw":
		return []phase{read(otherShare, true), write(selectedOffShare, false), write(selectedOnShare, true)}
	default:
		return []phase{read(otherShare, true), write(otherShare, true)}
	}
}

// reportServe sets the serve layer's metrics from a traced session.
func reportServe(cfg runConfig, res *serveResult, inproc map[string]float64, m *metricSet) {
	byOp := map[string][]float64{}
	var late, decode []float64
	var respBytes, reads, sloOK, bfs, batched, ok, stale int
	var onMS, offMS []float64 // the selected variant's latencies, spans on and off
	selWrites := cfg.workload == "serve-rw"
	for _, p := range res.phases {
		for i := range p.samples {
			s := &p.samples[i]
			late = append(late, msOf(s.start-s.due))
			if s.err != nil {
				if !p.writes {
					reads++
				}
				continue
			}
			ok++
			if s.stale {
				stale++
			}
			decode = append(decode, msOf(s.decode))
			lat := msOf(s.end - s.due)
			if p.writes == selWrites {
				if p.spans {
					onMS = append(onMS, lat)
				} else {
					offMS = append(offMS, lat)
				}
			}
			if p.writes {
				continue
			}
			reads++
			byOp[s.q.op] = append(byOp[s.q.op], lat)
			respBytes += s.bytes
			if lat <= sloMS {
				sloOK++
			}
			if s.q.op == "bfs" {
				bfs++
				if s.batch > 1 {
					batched++
				}
			}
		}
	}
	ratio := func(a, b int) float64 { return float64(a) / float64(max(b, 1)) }
	for _, op := range probeOps[:4] {
		l := summarize(byOp[op])
		m.set("serve.query_ms_p50."+op, l.p50)
		m.set("serve.query_ms_p99."+op, l.p99)
	}
	m.set("serve.query_ms_p50.triangles", median(append(append([]float64(nil), res.probeMS["hot/triangles"]...), res.probeMS["web/triangles"]...)))
	for _, op := range probeOps {
		m.set("serve.overhead_ms."+op, median(res.probeMS["hot/"+op])-inproc[op])
	}
	var allReads []float64
	for _, l := range byOp {
		allReads = append(allReads, l...)
	}
	okReads := len(allReads)
	m.set("serve.lat_ms_p99", summarize(allReads).p99)
	m.set("serve.resp_kb_per_query", float64(respBytes)/1024/float64(max(okReads, 1)))
	m.set("serve.batch_share", ratio(batched, bfs))
	delta := func(name string) float64 { return res.after[name] - res.before[name] }
	m.set("serve.batch_mean_size", delta("gbserve_batched_queries_total")/math.Max(delta("gbserve_batch_runs_total"), 1))
	shed, total := res.sheds()
	m.set("serve.shed_share", ratio(shed, total))
	m.set("serve.slo_ok_share", ratio(sloOK, reads))
	m.set("serve.server_mean_ms", 1e3*delta("gbserve_query_seconds_sum")/math.Max(delta("gbserve_query_seconds_count"), 1))
	w := res.writer
	m.set("serve.mutate_ms_p50", median(w.mutateMS))
	m.set("serve.flush_ms_p50", median(w.flushMS))
	m.set("serve.epochs_per_s", float64(w.epochs)/w.elapsed.Seconds())
	m.set("serve.stale_share", ratio(stale, ok))
	m.set("serve.peak_rss_mb", res.peakRSSMB)
	m.set("serve.drain_s", res.drainS)
	m.set("sim.modeled_ms_per_op.serve", mean(res.modeledMS))
	m.set("bench.gen_late_ms_p99", percentile(sortedCopy(late), 99))
	m.set("bench.client_decode_ms_p50", median(decode))
	if cfg.workload == "serve-read" || cfg.workload == "serve-rw" {
		m.set("bench.trace_overhead_share", (mean(onMS)-mean(offMS))/mean(offMS))
	}
}

// allocPass runs every gb call of the workloads once, unchecked, between two
// heap readings.
func allocPass(ws ...*libWorkload) (kbPerOp, allocsPerOp float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	for _, w := range ws {
		for k := range w.calls {
			if _, err := w.calls[k].run(1); err != nil {
				return 0, 0, fmt.Errorf("%s: %w", w.calls[k].name, err)
			}
			n++
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

func runTraced(ctx context.Context, cfg runConfig) (runResult, error) {
	tr := newSpanLog()
	m := newMetricSet(perLayer)
	var calib calibLog
	calib.sample()

	kern, err := runLibSection(cfg, "lib-kernels", tr)
	if err != nil {
		return runResult{}, err
	}
	calib.sample()
	dst, err := runLibSection(cfg, "lib-dist", tr)
	if err != nil {
		return runResult{}, err
	}
	calib.sample()
	res, err := runServe(ctx, serveConfig{
		bin: cfg.gbserve, seed: cfg.seed, setups: 1, probeReps: 5,
		clients: min(cfg.nproc, 4), phases: tracedServePhases(cfg), tr: tr,
	})
	if err != nil {
		return runResult{}, err
	}
	calib.sample()
	graphs, err := serveGraphs(cfg.seed)
	if err != nil {
		return runResult{}, err
	}
	perRung := time.Duration(rungsShare * float64(cfg.seconds) / ladderRungs)
	perTable := time.Duration(tableShare * float64(cfg.seconds))
	lo, err := runLadder(kern.w.kern, dst.w.dist, graphs[0].a, perRung, perTable, tr, m)
	if err != nil {
		return runResult{}, err
	}
	calib.sample()

	gbMS := kern.report(m)
	for name, ms := range dst.report(m) {
		gbMS[name] = ms
	}
	overhead := 0.0
	for name, ms := range gbMS {
		overhead += ms - lo.direct[name]
	}
	m.set("gb.facade_overhead_ms", overhead)
	kb, allocs, err := allocPass(kern.w, dst.w)
	if err != nil {
		return runResult{}, err
	}
	m.set("gb.alloc_kb_per_op", kb)
	m.set("gb.allocs_per_op", allocs)
	m.set("sim.model_over_real.spmspv_shm", kern.modelOverReal("spmspv_er_f2"))
	m.set("sim.model_over_real.spmspv_dist", dst.modelOverReal("spmspv_dist_f2"))
	m.set("sim.model_over_real.bfs", dst.modelOverReal("bfs_rmat"))
	m.set("sim.model_over_real.pagerank", dst.modelOverReal("pagerank_rmat"))

	reportServe(cfg, res, lo.inproc, m)
	for _, sec := range []*libSection{kern, dst} {
		if sec.off != nil {
			m.set("bench.trace_overhead_share", (meanOpMS(sec.on)-meanOpMS(sec.off))/meanOpMS(sec.off))
			sec.accountFor()
		}
	}
	m.set("host.calib_ms_p50", median(calib.ms))
	m.set("host.calib_spread", calib.spread())
	if miss := m.missing(); len(miss) > 0 {
		return runResult{}, fmt.Errorf("traced run left metrics unset: %v", miss) // a bug in the benchmark
	}

	path, err := tr.write(cfg.outdir, cfg.workload)
	if err != nil {
		return runResult{}, fmt.Errorf("write trace: %w", err)
	}
	logf("%s: %d spans written to %s", cfg.workload, len(tr.spans), path)

	out := runResult{Attempted: res.attempted, Failed: res.failed, Metrics: m.vals}
	for _, r := range []*libResult{kern.warm, kern.on, kern.off, dst.warm, dst.on, dst.off} {
		if r != nil {
			out.Attempted += r.attempted
			out.Failed += r.failed
			if r.firstErr != nil {
				logf("first failure: %v", r.firstErr)
			}
		}
	}
	if res.firstErr != nil {
		logf("first failure: %v", res.firstErr)
	}
	out.Correct = out.Failed == 0
	return out, nil
}
