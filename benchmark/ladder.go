package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/gb"
	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/workpool"
)

// The ladder: the library workloads' inputs pushed through each lower layer's
// public functions directly, one rung per layer, so that a layer's self time
// is its rung minus the rung below. Nothing here reaches inside a layer —
// in-program spans are a later change.

// newRT builds the runtime a gb.Context of the same shape wraps.
func newRT(p, threads, workers int, engine core.Engine) (*locale.Runtime, error) {
	rt, err := locale.New(machine.Edison(), p, threads)
	if err != nil {
		return nil, err
	}
	rt.RealWorkers = workers
	rt.ShmEngine = int(engine)
	rt.Fusion = true
	rt.Insp = inspect.New(inspect.Strategy{})
	return rt, nil
}

// rotate hands out a source pool round-robin, as the gb rung does.
func rotate(pool []int) func() int {
	k := -1
	return func() int { k++; return pool[k%len(pool)] }
}

// ladder times rungs under a per-rung budget and records a span for each.
type ladder struct {
	perRung  time.Duration // budget of one stand-alone rung
	perTable time.Duration // budget of one direct call table
	tr       *spanLog
	root     int
	err      error // first error a rung returned
}

// directTable drives the calls one layer below gb exactly as the gb rung is
// driven — round-robin, same inputs, same order — so that the two see the
// same heap and cache state and subtract. It returns the median ms per call.
func (ld *ladder) directTable(workload string, calls []libCall, out *ladderOut) (map[string]float64, error) {
	r := runLib(&libWorkload{name: "direct." + workload, calls: calls}, ld.perTable, false, ld.tr, nil)
	if r.firstErr != nil {
		return nil, fmt.Errorf("ladder direct.%s: %w", workload, r.firstErr)
	}
	ms := map[string]float64{}
	for k, c := range calls {
		ms[c.name] = median(r.perCall[k].ms)
		out.direct[callMetric(workload, c.name)] = ms[c.name]
	}
	return ms, nil
}

// direct wraps a lower-layer call as a table entry.
func direct(name string, f func() error) libCall {
	return libCall{name: name, run: func(int) (any, error) { return nil, f() }}
}

// rung warms f once, then repeats it at least three times and until the
// per-rung budget is spent, and returns the median in ms.
func (ld *ladder) rung(name string, f func() error) float64 {
	note := func(err error) {
		if err != nil && ld.err == nil {
			ld.err = fmt.Errorf("ladder %s: %w", name, err)
		}
	}
	note(f())
	var ms []float64
	start := time.Now()
	for len(ms) < 3 || (time.Since(start) < ld.perRung && len(ms) < 1000) {
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		note(err)
		ld.tr.add(name, ld.root, 0, t0, t1)
		ms = append(ms, msOf(t1.Sub(t0)))
	}
	return median(ms)
}

// batch times n back-to-back calls of a very short f and returns µs per call.
func (ld *ladder) batch(name string, n int, f func()) float64 {
	f()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	t1 := time.Now()
	ld.tr.add(name, ld.root, 0, t0, t1)
	return usOf(t1.Sub(t0)) / float64(n)
}

// ladderOut is what the driver combines with the gb rungs.
type ladderOut struct {
	direct map[string]float64 // callMetric name -> ms of the rung below gb
	inproc map[string]float64 // serve op -> ms of gb in-process on hot
}

func runLadder(kin *kernelInputs, din *distInputs, hot *sparse.CSR[float64], perRung, perTable time.Duration, tr *spanLog, m *metricSet) (*ladderOut, error) {
	ld := &ladder{perRung: perRung, perTable: perTable, tr: tr}
	ld.root = tr.reserve("ladder", 0, 0, time.Now())
	out := &ladderOut{direct: map[string]float64{}, inproc: map[string]float64{}}
	if err := ld.kernelRungs(kin, m, out); err != nil {
		return nil, err
	}
	if err := ld.distRungs(din, m, out); err != nil {
		return nil, err
	}
	if err := ld.streamRungs(hot, din.seed, m, out); err != nil {
		return nil, err
	}
	tr.finish(ld.root, time.Now())
	return out, ld.err
}

// kernelRungs: sparse, workpool and the shared-memory half of core, plus the
// rung below gb for every lib-kernels call.
func (ld *ladder) kernelRungs(in *kernelInputs, m *metricSet, out *ladderOut) error {
	m.set("sparse.gen_er_s", in.genERS)
	m.set("sparse.gen_rmat_s", in.genRMATS)

	rt, err := newRT(1, kernThreads, kernWorkers, core.EngineBucket)
	if err != nil {
		return err
	}
	rtm, err := newRT(1, kernThreads, kernWorkers, core.EngineMergeSort)
	if err != nil {
		return err
	}
	dA, dR := dist.MatFromCSR(rt, in.er), dist.MatFromCSR(rt, in.rmat)
	dx2, dx20, dxr := dist.SpVecFromVec(rt, in.x2), dist.SpVecFromVec(rt, in.x20), dist.SpVecFromVec(rt, in.xr)
	dv, dw := dist.SpVecFromVec(rt, in.v), dist.SpVecFromVec(rt, in.v)
	ddense := dist.DenseVecFromDense(rt, in.dense)
	dxd := dist.DenseVecFromDense(rt, &sparse.Dense[float64]{Data: in.xd})
	sr := semiring.PlusTimes[float64]()

	spmspv := func(r *locale.Runtime, a *dist.Mat[float64], x *dist.SpVec[float64]) func() error {
		return func() error { core.SpMSpVDistAuto(r, a, x); return nil }
	}
	bfsSrc := rotate(in.sources)
	ms, err := ld.directTable("lib-kernels", []libCall{
		direct("spmspv_er_f2", spmspv(rt, dA, dx2)),
		direct("spmspv_er_f20", spmspv(rt, dA, dx20)),
		direct("spmspv_rmat_f2", spmspv(rt, dR, dxr)),
		direct("spmspv_er_f2_msort", spmspv(rtm, dA, dx2)),
		direct("apply_512k", func() error { core.Apply2(rt, dv, plusOne); return nil }),
		direct("assign_512k", func() error { return core.Assign2(rt, dw, dv) }),
		direct("ewisemult_512k", func() error { _, err := core.EWiseMultSD(rt, dv, ddense, denseNonzero); return err }),
		direct("spmv_er", func() error { _, err := core.SpMVDist(rt, dA, dxd, sr); return err }),
		direct("bfs_rmat", func() error { _, err := algorithms.BFSDist(rt, dR, bfsSrc()); return err }),
	}, out)
	if err != nil {
		return err
	}
	m.set("core.apply2_ms", ms["apply_512k"])
	m.set("core.assign2_ms", ms["assign_512k"])
	m.set("core.ewisemult_ms", ms["ewisemult_512k"])

	// The shared-memory kernels under the distributed wrappers.
	cfg := core.ShmConfig{Threads: kernThreads, Workers: kernWorkers, Pool: rt.WP, Scratch: rt.Scratch}
	cfg.Engine = core.EngineMergeSort
	m.set("core.spmspv_shm_msort_ms", ld.rung("core.SpMSpVShm", func() error {
		y, _ := core.SpMSpVShm(in.er, in.x2, cfg)
		sparse.PutVec(rt.Scratch, y)
		return nil
	}))
	cfg.Engine = core.EngineBucket
	var visited int64
	m.set("core.spmspv_bucket_ms", ld.rung("core.SpMSpVBucket", func() error {
		y, st := core.SpMSpVBucket(in.er, in.x2, cfg)
		visited = st.EntriesVisited
		sparse.PutVec(rt.Scratch, y)
		return nil
	}))
	m.set("core.spmspv_entries_visited", float64(visited))
	m.set("core.apply1_ms", ld.rung("core.Apply1", func() error { core.Apply1(rt, dv, plusOne); return nil }))
	m.set("core.assign1_ms", ld.rung("core.Assign1", func() error { return core.Assign1(rt, dw, dv) }))
	m.set("core.spmv_ms", ld.rung("core.SpMV", func() error { _, err := core.SpMV(in.er, in.xd, sr); return err }))

	// The two sorts, on the index list spmspv_er_f20 emits (shuffled back
	// into discovery disorder: from outside only the sorted output is seen).
	idx := core.RefSpMSpVPattern(in.er, in.x20).Ind
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	buf := make([]int, len(idx))
	m.set("sparse.mergesort_ms", ld.rung("sparse.MergeSortInts", func() error {
		copy(buf, idx)
		sparse.MergeSortInts(buf, kernWorkers)
		return nil
	}))
	m.set("sparse.radixsort_ms", ld.rung("sparse.RadixSortInts", func() error {
		copy(buf, idx)
		sparse.RadixSortInts(buf)
		return nil
	}))

	wp := workpool.New()
	nproc := runtime.GOMAXPROCS(0)
	m.set("workpool.parfor_us", ld.batch("workpool.ParFor", 2000, func() { wp.ParFor(nproc, nproc, func(int, int) {}) }))
	return nil
}

// distRungs: the distributed half of core, comm, dist and algorithms on the
// 4x4 grid, plus the rung below gb for every lib-dist call.
func (ld *ladder) distRungs(in *distInputs, m *metricSet, out *ladderOut) error {
	rt, err := newRT(distLocales, distThreads, 1, core.EngineBucket)
	if err != nil {
		return err
	}
	rtc, err := newRT(distLocales, distThreads, 1, core.EngineBucket)
	if err != nil {
		return err
	}
	rtc.WithFault(fault.StandardChaos(subSeed(in.seed, "dist-chaos")))
	sr := semiring.PlusTimes[float64]()

	var dA *dist.Mat[float64]
	m.set("dist.mat_from_csr_ms", ld.rung("dist.MatFromCSR", func() error { dA = dist.MatFromCSR(rt, in.er); return nil }))
	dR, dS, dRC := dist.MatFromCSR(rt, in.rmat), dist.MatFromCSR(rt, in.mxm), dist.MatFromCSR(rtc, in.rmat)
	dx2 := dist.SpVecFromVec(rt, in.x2)
	dxd := dist.DenseVecFromDense(rt, &sparse.Dense[float64]{Data: in.xd})

	m.set("sparse.to_dcsc_ms", ld.rung("sparse.ToDCSC", func() error { sparse.ToDCSC(dS.Blocks[0]); return nil }))
	scratch := sparse.NewScratchPool()
	prod := sparse.NewCSR[float64](in.mxm.NRows, in.mxm.NCols)
	m.set("core.spgemm_local_ms", ld.rung("core.SpGEMMLocal", func() error {
		core.SpGEMMLocal(scratch, in.mxm, in.mxm, sr, prod)
		return nil
	}))

	// One pass over the calls first, for the exact traffic counts.
	var bfsRounds, ssspRounds, prRounds int
	bfsSrc, ssspSrc, chaosSrc := rotate(in.srcRM), rotate(in.srcER), rotate(in.srcRM)
	calls := []libCall{
		direct("spmspv_dist_f2", func() error { core.SpMSpVDistAuto(rt, dA, dx2); return nil }),
		direct("spmv_dist", func() error { _, err := core.SpMVDist(rt, dA, dxd, sr); return err }),
		direct("mxm_summa", func() error { _, err := core.SpGEMMDist(rt, dS, dS, sr); return err }),
		direct("bfs_rmat", func() error {
			res, err := algorithms.BFSDist(rt, dR, bfsSrc())
			if err == nil {
				bfsRounds = res.Rounds
			}
			return err
		}),
		direct("sssp_er", func() error {
			var err error
			_, ssspRounds, err = algorithms.SSSPDist(rt, dA, ssspSrc())
			return err
		}),
		direct("pagerank_rmat", func() error {
			var err error
			_, prRounds, err = algorithms.PageRankDist(rt, dR, prDamping, prTol, prMaxIter)
			return err
		}),
		direct("cc_rmat", func() error { _, _, err := algorithms.CCDist(rt, dR); return err }),
		direct("triangles_rmat", func() error { _, err := algorithms.TriangleCountDist(rt, dS); return err }),
	}
	before := rt.S.Traffic()
	for _, c := range calls {
		if _, err := c.run(0); err != nil {
			return fmt.Errorf("ladder %s: %w", c.name, err)
		}
	}
	after := rt.S.Traffic()
	m.set("comm.msgs_per_op", float64(after.Messages-before.Messages)/float64(len(calls)))
	m.set("comm.bytes_per_op", float64(after.Bytes-before.Bytes)/float64(len(calls)))
	m.set("algorithms.bfs_rounds", float64(bfsRounds))
	m.set("algorithms.sssp_rounds", float64(ssspRounds))
	m.set("algorithms.pagerank_rounds", float64(prRounds))

	calls = append(calls, direct("bfs_rmat_chaos", func() error { _, err := algorithms.BFSDist(rtc, dRC, chaosSrc()); return err }))
	ms, err := ld.directTable("lib-dist", calls, out)
	if err != nil {
		return err
	}
	// BFS rounds charge fine-grained traffic, which the injector delays but
	// never drops; the retry loops live in the collectives, so they are
	// exercised with an SSSP on the same chaos runtime.
	dAC := dist.MatFromCSR(rtc, in.er)
	chaosSSSP := 0
	ld.rung("algorithms.SSSPDist.chaos", func() error {
		chaosSSSP++
		_, _, err := algorithms.SSSPDist(rtc, dAC, in.srcER[0])
		return err
	})
	m.set("comm.retries_per_op", float64(rtc.S.Traffic().Retries)/float64(chaosSSSP))
	m.set("core.spmspv_dist_auto_ms", ms["spmspv_dist_f2"])
	m.set("core.spmv_dist_ms", ms["spmv_dist"])
	m.set("core.spgemm_dist_ms", ms["mxm_summa"])
	m.set("algorithms.bfs_ms", ms["bfs_rmat"])
	m.set("algorithms.sssp_ms", ms["sssp_er"])
	m.set("algorithms.pagerank_ms", ms["pagerank_rmat"])
	m.set("algorithms.cc_ms", ms["cc_rmat"])
	m.set("algorithms.triangles_ms", ms["triangles_rmat"])
	m.set("algorithms.sssp_ms_per_round", ms["sssp_er"]/float64(max(ssspRounds, 1)))
	m.set("algorithms.msbfs_ms", ld.rung("algorithms.MSBFSDist", func() error {
		_, _, err := algorithms.MSBFSDist(rt, dR, in.srcRM[:4])
		return err
	}))

	// The SpMSpV communication variants the inspector chooses between.
	var st core.DistStats
	m.set("core.spmspv_dist_fine_ms", ld.rung("core.SpMSpVDist", func() error {
		_, st = core.SpMSpVDist(rt, dA, dx2)
		return nil
	}))
	m.set("core.spmspv_gathered_elems", float64(st.GatheredElems))
	m.set("core.spmspv_scattered_msgs", float64(st.ScatteredMsgs))
	m.set("core.spmspv_dist_bulk_ms", ld.rung("core.SpMSpVDistBulk", func() error {
		_, _, err := core.SpMSpVDistBulk(rt, dA, dx2)
		return err
	}))

	// The collectives, on the per-locale pieces of the same frontier.
	inds, vals := make([][]int, distLocales), make([][]float64, distLocales)
	for l, lv := range dx2.Loc {
		inds[l], vals[l] = lv.Ind, lv.Val
	}
	perLocale := ones(distLocales)
	m.set("comm.sparse_row_allgather_ms", ld.rung("comm.SparseRowAllGather", func() error {
		_, _, err := comm.SparseRowAllGather(rt, inds, vals)
		return err
	}))
	m.set("comm.col_merge_scatter_ms", ld.rung("comm.ColMergeScatter", func() error {
		_, _, err := comm.ColMergeScatter(rt, dx2.N, inds, vals, nil)
		return err
	}))
	m.set("comm.row_allgather_ms", ld.rung("comm.RowAllGather", func() error {
		_, err := comm.RowAllGather(rt, vals)
		return err
	}))
	m.set("comm.allreduce_us", 1e3*ld.rung("comm.AllReduce", func() error {
		_, err := comm.AllReduce(rt, perLocale, semiring.PlusMonoid[float64]())
		return err
	}))

	ops := []core.OpDesc{ // one BFS round as the planner sees it
		{Op: core.OpSpMSpV, In0: 1, Out: 2},
		{Op: core.OpEWiseMult, In0: 2, In1: 3, Out: 4},
		{Op: core.OpAssign, In0: 4, Out: 1},
	}
	var regs []core.Region
	m.set("core.plan_fusion_us", ld.batch("core.PlanFusion", 2000, func() { regs = core.PlanFusion(ops, regs[:0]) }))

	// The gb facade's own switches, measured at the gb rung.
	ctx, err := gb.New(gb.Locales(distLocales), gb.Threads(distThreads), gb.Workers(1))
	if err != nil {
		return err
	}
	gR := gb.MatrixFromCSR(ctx, in.rmat)
	bfs := func(c *gb.Context) func() error {
		mat := gR.WithContext(c)
		return func() error { _, err := gb.BFS(c, mat, in.srcRM[0]); return err }
	}
	fused := ld.rung("gb.BFS.fused", bfs(ctx))
	eager := ld.rung("gb.BFS.eager", bfs(ctx.WithFusion(gb.Eager)))
	m.set("gb.eager_over_fused", eager/fused)

	gA := gb.MatrixFromCSR(ctx, in.er)
	gx, err := gbVec(ctx, in.x2)
	if err != nil {
		return err
	}
	spmspv := func(c *gb.Context) func() error {
		mat := gA.WithContext(c)
		return func() error {
			if _, err := gb.SpMSpV(mat, gx); err != nil {
				return err
			}
			return c.Wait()
		}
	}
	fine, err := ctx.WithStrategy(gb.ForceFine)
	if err != nil {
		return err
	}
	bulk, err := ctx.WithStrategy(gb.ForceBulk)
	if err != nil {
		return err
	}
	auto := ld.rung("gb.SpMSpV.auto", spmspv(ctx))
	m.set("gb.auto_over_best_pin", auto/min(ld.rung("gb.SpMSpV.fine", spmspv(fine)), ld.rung("gb.SpMSpV.bulk", spmspv(bulk))))
	return nil
}

// streamRungs: the write path (dist deltas, core.FlushEpoch) and the
// per-query derivation, on hot at gbserve's 4 locales x 4 threads, plus gb
// in-process for every served op.
func (ld *ladder) streamRungs(hot *sparse.CSR[float64], seed int64, m *metricSet, out *ladderOut) error {
	rt, err := newRT(4, 4, 1, core.EngineBucket)
	if err != nil {
		return err
	}
	em := dist.NewEpochMat(dist.MatFromCSR(rt, hot))
	em.SetHistoryDepth(8)
	batches := genBatches(hot.NRows, 64, subSeed(seed, "ladder-writes"))
	unit := ones(batchEdges)
	var updateUS, flushEpochMS, flushMS []float64
	for i, b := range batches {
		t0 := time.Now()
		if err := em.UpdateBatch(b.rows, b.cols, unit); err != nil {
			return err
		}
		t1 := time.Now()
		if i%2 == 0 {
			_, _, err = core.FlushEpoch(rt, em)
		} else {
			_, err = em.Flush(rt)
		}
		t2 := time.Now()
		if err != nil {
			return err
		}
		updateUS = append(updateUS, usOf(t1.Sub(t0)))
		if i%2 == 0 {
			ld.tr.add("core.FlushEpoch", ld.root, 0, t1, t2)
			flushEpochMS = append(flushEpochMS, msOf(t2.Sub(t1)))
		} else {
			ld.tr.add("dist.Flush", ld.root, 0, t1, t2)
			flushMS = append(flushMS, msOf(t2.Sub(t1)))
		}
	}
	m.set("dist.update_batch_us", median(updateUS))
	m.set("core.flush_epoch_ms", median(flushEpochMS))
	m.set("dist.flush_ms", median(flushMS))
	m.set("dist.snapshot_us", ld.batch("dist.Snapshot", 100000, func() { em.Snapshot() }))

	// What serve pays per query before any compute starts.
	base, err := gb.New(gb.Locales(4), gb.Threads(4))
	if err != nil {
		return err
	}
	stream := gb.StreamingMatrixFromCSR(base, hot)
	bg := context.Background()
	m.set("gb.derive_us", ld.batch("gb.derive", 500, func() {
		qc := base.WithCancelContext(bg).WithModeledDeadline(1e12)
		sm, _ := stream.Matrix()
		_ = sm.WithContext(qc)
		base.AbsorbCalibration(qc)
	}))

	H := gb.MatrixFromCSR(base, hot)
	src := pickSources(hot, 1, subSeed(seed, "serve-src-hot"))[0]
	for op, f := range map[string]func() error{
		"bfs":       func() error { _, err := gb.BFS(base, H, src); return err },
		"sssp":      func() error { _, _, err := gb.SSSP(H, src); return err },
		"pagerank":  func() error { _, _, err := gb.PageRank(H, prDamping, prTol, prMaxIter); return err },
		"cc":        func() error { _, _, err := gb.ConnectedComponents(H); return err },
		"triangles": func() error { _, err := gb.TriangleCount(H); return err },
	} {
		out.inproc[op] = ld.rung("gb.inproc."+op, f)
	}
	return nil
}
