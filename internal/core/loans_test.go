package core

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// The arena's loan contract (DESIGN.md §10): whatever a kernel borrows it has
// returned by the time it returns, whichever way it returns. These tests read
// the arena's count of outstanding loans after every public kernel that
// borrows — the scratch-backed shared-memory kernels through a ShmConfig, the
// distributed ones through the runtime — and, for the kernels built on
// retryable collectives, after every way a fault plan can make them fail.

func TestArenaLoansBalanceAfterEveryKernel(t *testing.T) {
	const n = 600
	a0 := sparse.ErdosRenyi[int64](n, 5, 71)
	x0 := sparse.RandomVec[int64](n, 80, 72)
	mask0 := sparse.RandomBoolDense[int64](n, 0.4, 73)
	sr := semiring.MinPlus[int64]()
	for _, p := range []int{1, 4, 6} {
		rt := newRT(t, p, 24)
		a := dist.MatFromCSR(rt, a0)
		x := dist.SpVecFromVec(rt, x0)
		xd := dist.DenseVecFromDense(rt, sparse.NewDenseFill[int64](n, 2))
		mask := dist.DenseVecFromDense(rt, mask0)
		dst := dist.NewSpVec[int64](rt, n)
		z := dist.NewSpVec[int64](rt, n)
		pred := func(_, m int64) bool { return m == 0 }
		levels, parents := make([]int64, n), make([]int64, n)
		kernels := map[string]func(){
			"SpMSpVDist":         func() { SpMSpVDist(rt, a, x) },
			"SpMSpVDistSemiring": func() { SpMSpVDistSemiring(rt, a, x, sr) },
			"SpMSpVDistMasked":   func() { SpMSpVDistMasked(rt, a, x, mask) },
			"SpMSpVDistBulk":     func() { _, _, _ = SpMSpVDistBulk(rt, a, x) },
			"SpMSpVDistAuto":     func() { SpMSpVDistAuto(rt, a, x) },
			"SpMVDist":           func() { _, _ = SpMVDist(rt, a, xd, sr) },
			"FusedSpMVUpdate":    func() { _ = FusedSpMVUpdate(rt, a, xd, sr, func(int, int, []int64) {}) },
			"FusedBFSRound": func() {
				f := dist.SpVecFromVec(rt, x0)
				FusedBFSRound(rt, a, f, mask, 1, levels, parents)
			},
			"BFSPullRound": func() {
				f := dist.SpVecFromVec(rt, x0)
				_, _ = BFSPullRound(rt, a, blockCSCs(a), f, mask, 1, levels, parents)
			},
			"FusedSpMSpVMaskedAssign": func() { FusedSpMSpVMaskedAssign(rt, a, x, mask, dst) },
			"FusedSpMSpVFilterAssign": func() { FusedSpMSpVFilterAssign(rt, a, x, mask, pred, dst) },
			"FusedApplyEWiseMult": func() {
				_ = FusedApplyEWiseMult(rt, dist.SpVecFromVec(rt, x0), incr[int64], mask, pred, z)
			},
			"EWiseMultSDInto":  func() { _ = EWiseMultSDInto(rt, x, mask, pred, z) },
			"SpGEMMDist":       func() { _, _ = SpGEMMDist(rt, a, a, sr) },
			"SpGEMMDistMasked": func() { _, _ = SpGEMMDistMasked(rt, a, a, a, sr) },
		}
		for _, engine := range []Engine{EngineMergeSort, EngineRadixSort, EngineBucket} {
			for _, workers := range []int{1, 3} {
				cfg := ShmConfig{Threads: 24, Workers: workers, Engine: engine, Sim: rt.S, Pool: rt.WP, Scratch: rt.Scratch}
				name := fmt.Sprintf("%v/%d workers", engine, workers)
				kernels["SpMSpVShm/"+name] = func() { SpMSpVShm(a0, x0, cfg) }
				kernels["SpMSpVShmSemiring/"+name] = func() { SpMSpVShmSemiring(a0, x0, sr, cfg) }
				kernels["SpMSpVMasked/"+name] = func() { SpMSpVMasked(a0, x0, mask0, cfg) }
			}
		}
		hs := sparse.ErdosRenyi[int64](n, 0.4, 74) // hypersparse: heap kernel, DCSC walk
		var out sparse.CSR[int64]
		kernels["SpGEMMLocal"] = func() { SpGEMMLocal(rt.Scratch, a0, a0, sr, &out) }
		kernels["SpGEMMLocal/hypersparse"] = func() { SpGEMMLocal(rt.Scratch, hs, a0, sr, &out) }
		for name, run := range kernels {
			run()
			if got := rt.Scratch.Outstanding(); got != 0 {
				t.Fatalf("p=%d: %d arena loans outstanding after %s", p, got, name)
			}
			// The free lists hold what was in use at once, however many calls
			// were made: a kernel that returns more than it takes, or whose
			// misses pile up, adds at least one object per call. (Parallel
			// workers overlap differently from run to run, so a settled arena
			// may still gain an object or two.)
			for k := 0; k < 3; k++ {
				run()
			}
			settled := rt.Scratch.Held()
			const calls = 40
			for k := 0; k < calls; k++ {
				run()
			}
			if grown := rt.Scratch.Held() - settled; grown >= calls/4 {
				t.Errorf("p=%d: the arena holds %d more objects after %d more calls of %s", p, grown, calls, name)
			}
		}
	}
}

// TestArenaLoansReturnedWhenCollectivesFail plants a crash at every transfer
// step of the SpMV stages and of a SUMMA product, and drops transfers until
// the retry budget runs out, on a 2x3 grid: the kernel fails mid-RowAllGather,
// mid-ColReduceScatter or mid-broadcast (a SUMMA panel, or the SpMSpV
// pipeline's mask), or mid-way through the bulk SpMSpV's sparse collectives,
// and whatever it had borrowed by then is back in the arena. The SpMV stages run both reduce forms: plus-times
// folds per-block partials, min-plus (and the pull round) reduces in place.
func TestArenaLoansReturnedWhenCollectivesFail(t *testing.T) {
	const n = 240
	a0 := sparse.ErdosRenyi[float64](n, 5, 81)
	sr := semiring.PlusTimes[float64]()
	minPlus := semiring.MinPlus[float64]()
	kernels := map[string]func(rt *locale.Runtime, a *dist.Mat[float64], xd *dist.DenseVec[float64]) error{
		"SpMVDist": func(rt *locale.Runtime, a *dist.Mat[float64], xd *dist.DenseVec[float64]) error {
			_, err := SpMVDist(rt, a, xd, sr)
			return err
		},
		"FusedSpMVUpdate": func(rt *locale.Runtime, a *dist.Mat[float64], xd *dist.DenseVec[float64]) error {
			return FusedSpMVUpdate(rt, a, xd, sr, func(int, int, []float64) {})
		},
		"SpMVDist/min-plus": func(rt *locale.Runtime, a *dist.Mat[float64], xd *dist.DenseVec[float64]) error {
			_, err := SpMVDist(rt, a, xd, minPlus)
			return err
		},
		"FusedSpMVUpdate/min-plus": func(rt *locale.Runtime, a *dist.Mat[float64], xd *dist.DenseVec[float64]) error {
			return FusedSpMVUpdate(rt, a, xd, minPlus, func(int, int, []float64) {})
		},
		"SpGEMMDist": func(rt *locale.Runtime, a *dist.Mat[float64], _ *dist.DenseVec[float64]) error {
			_, err := SpGEMMDist(rt, a, a, sr)
			return err
		},
		"BFSPullRound": func(rt *locale.Runtime, a *dist.Mat[float64], _ *dist.DenseVec[float64]) error {
			f := dist.SpVecFromVec(rt, sparse.RandomVec[float64](n, 30, 82))
			_, err := BFSPullRound(rt, a, blockCSCs(a), f, dist.NewDenseVec[int64](rt, n), 1, make([]int64, n), make([]int64, n))
			return err
		},
		"SpGEMMDistMasked": func(rt *locale.Runtime, a *dist.Mat[float64], _ *dist.DenseVec[float64]) error {
			_, err := SpGEMMDistMasked(rt, a, a, a, sr)
			return err
		},
		"SpMSpVDistMasked": func(rt *locale.Runtime, a *dist.Mat[float64], _ *dist.DenseVec[float64]) error {
			x := dist.SpVecFromVec(rt, sparse.RandomVec[float64](n, 30, 82))
			_, _, err := SpMSpVDistMasked(rt, a, x, dist.NewDenseVec[int64](rt, n))
			return err
		},
		"SpMSpVDistBulk": func(rt *locale.Runtime, a *dist.Mat[float64], _ *dist.DenseVec[float64]) error {
			_, _, err := SpMSpVDistBulk(rt, a, dist.SpVecFromVec(rt, sparse.RandomVec[float64](n, 30, 82)))
			return err
		},
		"FusedBFSRound": func(rt *locale.Runtime, a *dist.Mat[float64], _ *dist.DenseVec[float64]) error {
			f := dist.SpVecFromVec(rt, sparse.RandomVec[float64](n, 30, 82))
			_, _, err := FusedBFSRound(rt, a, f, dist.NewDenseVec[int64](rt, n), 1, make([]int64, n), make([]int64, n))
			return err
		},
	}
	var plans []fault.Plan
	for step := int64(0); step < 400; step += 1 + step/40 { // every early step, then strides
		plans = append(plans, fault.Plan{Seed: 1, CrashLocale: 4, CrashStep: step})
	}
	for seed := int64(1); seed <= 20; seed++ {
		plans = append(plans,
			fault.Plan{Seed: seed, DropProb: 0.6, CrashLocale: -1},
			fault.Plan{Seed: seed, DropProb: 0.03, CrashLocale: -1})
	}
	for name, run := range kernels {
		failed, succeeded := 0, 0
		for _, plan := range plans {
			rt := newRT(t, 6, 24).WithFault(plan)
			rt.Retry = fault.RetryPolicy{MaxAttempts: 2}
			a := dist.MatFromCSR(rt, a0)
			xd := dist.DenseVecFromDense(rt, sparse.NewDenseFill[float64](n, 1.5))
			if err := run(rt, a, xd); err != nil {
				failed++
			} else {
				succeeded++
			}
			if got := rt.Scratch.Outstanding(); got != 0 {
				t.Fatalf("%s under %+v: %d arena loans outstanding", name, plan, got)
			}
		}
		// The sweep must reach past the kernel's last transfer and must have
		// interrupted it on the way there.
		if failed == 0 || succeeded == 0 {
			t.Errorf("%s: %d runs failed and %d succeeded; the fault sweep does not straddle the kernel", name, failed, succeeded)
		}
	}
}

// blockCSCs is every block of a in CSC form, as BFSPullRound scans them.
func blockCSCs[T semiring.Number](a *dist.Mat[T]) []*sparse.CSC[T] {
	cols := make([]*sparse.CSC[T], len(a.Blocks))
	for l, blk := range a.Blocks {
		cols[l] = blk.ToCSC()
	}
	return cols
}
