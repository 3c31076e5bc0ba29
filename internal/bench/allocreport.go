package bench

// The allocation report backs the CI perf gate's second axis: besides the
// modeled seconds of BENCH_spmspv.json, CI tracks the steady-state heap
// allocations per call of the pooled hot kernels. The tentpole contract is
// that every shared-memory and element-wise entry here is exactly zero — a
// warm worker pool plus scratch arena leaves nothing to allocate — so any
// nonzero value is a regression (an escaped closure, a dropped checkout, a
// variadic trace tag). The two distributed rounds at the end are pinned at
// what is left once their stage buffers are arena loans: a few header slices
// for the SpMV round, the result blocks and descriptors for the SUMMA pair.
// The gate (cmd/benchgate) fails the build on any increase.

import (
	"encoding/json"
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// AllocPoint is the measured steady-state allocation count of one kernel.
type AllocPoint struct {
	Kernel      string  `json:"kernel"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// AllocReport is the BENCH_alloc.json document.
type AllocReport struct {
	Kernels []AllocPoint `json:"kernels"`
}

// Get returns the entry for kernel, if present.
func (r AllocReport) Get(kernel string) (AllocPoint, bool) {
	for _, k := range r.Kernels {
		if k.Kernel == kernel {
			return k, true
		}
	}
	return AllocPoint{}, false
}

// allocWarmups primes the arena before measuring (the first calls size the
// pooled buffers).
const allocWarmups = 5

// MeasureAllocs measures the steady-state allocs/op of the pooled hot kernels
// with testing.AllocsPerRun, mirroring the assertions of
// internal/core/alloc_test.go so the committed baseline and the test enforce
// the same contract.
func MeasureAllocs() (AllocReport, error) {
	var rep AllocReport
	add := func(kernel string, f func()) {
		rep.Kernels = append(rep.Kernels, AllocPoint{
			Kernel:      kernel,
			AllocsPerOp: testing.AllocsPerRun(50, f),
		})
	}

	// Shared-memory kernels: one locale, sequential real execution.
	rtShm, err := locale.New(machine.Edison(), 1, 24)
	if err != nil {
		return rep, err
	}
	a := sparse.ErdosRenyi[int64](5000, 8, 1)
	x := sparse.RandomVec[int64](5000, 400, 2)
	cfg := core.ShmConfig{
		Threads: 24, Workers: 1, Engine: core.EngineBucket,
		Sim: rtShm.S, Pool: rtShm.WP, Scratch: rtShm.Scratch,
	}
	for i := 0; i < allocWarmups; i++ {
		y, _ := core.SpMSpVShm(a, x, cfg)
		sparse.PutVec(cfg.Scratch, y)
	}
	add("spmspv_shm_bucket", func() {
		y, _ := core.SpMSpVShm(a, x, cfg)
		sparse.PutVec(cfg.Scratch, y)
	})

	sr := semiring.PlusTimes[int64]()
	for i := 0; i < allocWarmups; i++ {
		y, _ := core.SpMSpVShmSemiring(a, x, sr, cfg)
		sparse.PutVec(cfg.Scratch, y)
	}
	add("spmspv_shm_bucket_semiring", func() {
		y, _ := core.SpMSpVShmSemiring(a, x, sr, cfg)
		sparse.PutVec(cfg.Scratch, y)
	})

	mask := sparse.RandomBoolDense[int64](5000, 0.3, 3)
	for i := 0; i < allocWarmups; i++ {
		y, _ := core.SpMSpVMasked(a, x, mask, cfg)
		sparse.PutVec(cfg.Scratch, y)
	}
	add("spmspv_masked_bucket", func() {
		y, _ := core.SpMSpVMasked(a, x, mask, cfg)
		sparse.PutVec(cfg.Scratch, y)
	})

	// Fused BFS push step: the SpMSpV product comes from the arena and the
	// frontier is rebuilt in place, so a warm call allocates nothing. The
	// traversal state rewinds between runs on its high-water buffers.
	const fsrc = 3
	frontier := sparse.NewVec[int64](5000)
	visited := sparse.NewDense[int64](5000)
	flv := make([]int64, 5000)
	fpar := make([]int64, 5000)
	fusedReset := func() {
		for i := range visited.Data {
			visited.Data[i] = 0
			flv[i] = -1
			fpar[i] = -1
		}
		visited.Data[fsrc] = 1
		flv[fsrc] = 0
		frontier.Ind = append(frontier.Ind[:0], fsrc)
		frontier.Val = append(frontier.Val[:0], 1)
	}
	for i := 0; i < allocWarmups; i++ {
		fusedReset()
		core.FusedPushStepShm(a, frontier, visited, 1, flv, fpar, cfg)
	}
	add("spmspv_fused", func() {
		fusedReset()
		core.FusedPushStepShm(a, frontier, visited, 1, flv, fpar, cfg)
	})

	// Fusion planner: descriptors in, regions out of a warm buffer.
	planOps := []core.OpDesc{
		{Op: core.OpSpMSpV, In0: 1, Out: 2},
		{Op: core.OpEWiseMult, In0: 2, In1: 3, Out: 4},
		{Op: core.OpAssign, In0: 4, Out: 1},
		{Op: core.OpApply, In0: 1, Out: 1},
		{Op: core.OpEWiseMult, In0: 1, In1: 3, Out: 5},
	}
	planRegions := make([]core.Region, 0, 8)
	add("fusion_plan", func() {
		planRegions = core.PlanFusion(planOps, planRegions)
	})

	// Distributed element-wise kernels: four locales, outputs reused.
	rtDist, err := locale.New(machine.Edison(), 4, 24)
	if err != nil {
		return rep, err
	}
	x0 := sparse.RandomVec[int64](8000, 1500, 4)
	y0 := sparse.RandomBoolDense[int64](8000, 0.5, 5)
	dx := dist.SpVecFromVec(rtDist, x0)
	dy := dist.DenseVecFromDense(rtDist, y0)
	dz := dist.NewSpVec[int64](rtDist, dx.N)
	pred := func(_, m int64) bool { return m != 0 }
	for i := 0; i < allocWarmups; i++ {
		if err := core.EWiseMultSDInto(rtDist, dx, dy, pred, dz); err != nil {
			return rep, err
		}
	}
	add("ewisemult_sd_into", func() {
		_ = core.EWiseMultSDInto(rtDist, dx, dy, pred, dz)
	})

	op := func(v int64) int64 { return v + 1 }
	for i := 0; i < allocWarmups; i++ {
		core.Apply2(rtDist, dx, op)
	}
	add("apply2", func() {
		core.Apply2(rtDist, dx, op)
	})

	// Inspector dispatch: pricing both communication variants, recording the
	// decision and feeding back the observed cost all run on the inspector's
	// fixed ring and calibration arrays — a dispatch heats no memory.
	rtDist.Insp = inspect.New(inspect.Strategy{})
	dma := dist.MatFromCSR(rtDist, sparse.ErdosRenyi[int64](8000, 8, 7))
	dispatch := func() {
		est := core.EstimateSpMSpVComm(rtDist, dma, dx)
		choice := rtDist.Insp.DecideComm("SpMSpV", est.Fine, est.Bulk,
			core.ReasonSparseFrontier, core.ReasonDenseFrontier)
		rtDist.Insp.Observe(inspect.AxisComm, uint8(choice), est.Fine, est.Fine)
	}
	for i := 0; i < allocWarmups; i++ {
		dispatch()
	}
	add("inspector_dispatch", dispatch)

	// Streaming ingest: absorbing mutations appends into retained delta
	// buffers, and a steady-state epoch merge runs entirely on recycled
	// states, recycled block buffers and pooled scratch.
	em := dist.NewEpochMat(dist.MatFromCSR(rtDist, sparse.ErdosRenyi[int64](2000, 8, 6)))
	mutate := func() error {
		for k := 0; k < 64; k++ {
			i, j := (k*7)%2000, (k*13+3)%2000
			if k%8 == 0 {
				if err := em.Delete(i, j); err != nil {
					return err
				}
			} else if err := em.Update(i, j, int64(k)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := mutate(); err != nil {
		return rep, err
	}
	em.DiscardPending()
	add("epoch_absorb", func() {
		_ = mutate()
		em.DiscardPending()
	})
	for i := 0; i < 2*dist.DefaultHistoryDepth+1; i++ {
		if err := mutate(); err != nil {
			return rep, err
		}
		if _, err := em.Flush(rtDist); err != nil {
			return rep, err
		}
	}
	add("delta_merge", func() {
		_ = mutate()
		_, _ = em.Flush(rtDist)
	})

	// SUMMA local multiply: the per-stage kernel of the distributed SpGEMM.
	// Heap or hash, the output CSR and every intermediate come from the
	// scratch arena, so a warm call allocates nothing.
	ga := sparse.ErdosRenyi[int64](3000, 6, 8)
	gb := sparse.ErdosRenyi[int64](3000, 6, 9)
	var gout sparse.CSR[int64]
	for i := 0; i < allocWarmups; i++ {
		core.SpGEMMLocal(rtShm.Scratch, ga, gb, sr, &gout)
	}
	add("spgemm_local", func() {
		core.SpGEMMLocal(rtShm.Scratch, ga, gb, sr, &gout)
	})

	// CSR→DCSC conversion: the hypersparse representation is rebuilt into
	// retained buffers on a warm convert.
	hs := sparse.ErdosRenyi[int64](4000, 0.2, 10) // nnz < nrows: hypersparse
	var dc sparse.DCSC[int64]
	for i := 0; i < allocWarmups; i++ {
		dc.FromCSR(hs)
	}
	add("dcsc_convert", func() {
		dc.FromCSR(hs)
	})

	// One distributed SpMV round as SSSP, PageRank and CC run it: fused with
	// its update on a 2x2 grid, every stage buffer on loan from the arena.
	sssp := semiring.MinPlus[float64]()
	dA := dist.MatFromCSR(rtDist, sparse.ErdosRenyi[float64](8000, 8, 11))
	dcur := dist.DenseVecFromDense(rtDist, sparse.NewDenseFill[float64](8000, 1.5))
	var relaxed float64
	round := func() {
		_ = core.FusedSpMVUpdate(rtDist, dA, dcur, sssp, func(_, _ int, v float64) { relaxed += v })
	}
	for i := 0; i < allocWarmups; i++ {
		round()
	}
	add("spmv_dist_round", round)

	// SUMMA as a mixed-type service runs it: MxM[float64] alternating with
	// the triangle count's masked SpGEMM[int64] on one runtime, a collection
	// after each. The typed arena keeps both sets of stage buffers through
	// it all, so the pair costs its results and descriptors — not a refill.
	srf := semiring.PlusTimes[float64]()
	mf := dist.MatFromCSR(rtDist, sparse.ErdosRenyi[float64](1500, 6, 12))
	mi := dist.MatFromCSR(rtDist, sparse.ErdosRenyi[int64](1500, 6, 12))
	pair := func() {
		_, _ = core.SpGEMMDist(rtDist, mf, mf, srf)
		runtime.GC()
		_, _ = core.SpGEMMDistMasked(rtDist, mi, mi, mi, sr)
		runtime.GC()
	}
	for i := 0; i < allocWarmups; i++ {
		pair()
	}
	rep.Kernels = append(rep.Kernels, AllocPoint{
		Kernel: "spgemm_dist_mixed",
		// Less what the two collections themselves allocate.
		AllocsPerOp: testing.AllocsPerRun(20, pair) - testing.AllocsPerRun(20, func() { runtime.GC(); runtime.GC() }),
	})

	return rep, nil
}

// WriteAllocJSON writes the report as indented JSON.
func WriteAllocJSON(w io.Writer, rep AllocReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadAllocJSON parses a BENCH_alloc.json document.
func ReadAllocJSON(r io.Reader) (AllocReport, error) {
	var rep AllocReport
	err := json.NewDecoder(r).Decode(&rep)
	return rep, err
}
