package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/gb"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// The two library workloads: a table of gb calls run round-robin by one
// closed-loop caller. Every call is timed from outside, checked against a
// sequential reference on the first pass and every 32nd, and charged its
// share of the context's modeled clock.

// Input sizes. ISSUE 11 sized these for a 40-s window on a larger host; they
// are scaled so that a 20-s window on two cores still yields more than 1000
// latency samples and set-up stays around a second (see README.md).
const (
	kernERScale   = 17 // ER n = 2^17, mean degree 16
	kernRMATScale = 16 // R-MAT scale 16, edge factor 16
	kernVecCap    = 1 << 21
	kernVecNNZ    = 1 << 19
	kernThreads   = 24
	// kernWorkers is the number of goroutines the shared-memory kernels really
	// use. ISSUE 11 asked for nproc, but whether two runnable threads get two
	// CPUs is a coin toss per process on the hosts this runs on (README.md,
	// "One worker"), and the toss decides every number: one worker it is.
	kernWorkers = 1

	distLocales   = 16 // 4x4 grid
	distThreads   = 6
	distERScale   = 13 // ER n = 2^13, mean degree 16
	distRMATScale = 13 // R-MAT scale 13, edge factor 8
	distMxMScale  = 10 // R-MAT scale 10, edge factor 8, for the SpGEMM calls

	meanDegree   = 16
	sourcePool   = 16
	verifyEvery  = 32
	sliceSeconds = 2

	prDamping = 0.85
	prTol     = 1e-6
	prMaxIter = 100
)

// libCall is one entry of a workload's call table.
type libCall struct {
	name string
	// ctx is the context whose modeled clock the call advances.
	ctx *gb.Context
	// run makes the gb call for cycle i and returns its (materialized)
	// result.
	run func(i int) (any, error)
	// verify compares the result of cycle i with the sequential reference.
	verify func(i int, res any) error
}

type libWorkload struct {
	name  string
	calls []libCall
	kern  *kernelInputs // set on lib-kernels
	dist  *distInputs   // set on lib-dist
}

func plusOne(x float64) float64      { return x + 1 }
func denseNonzero(_, y float64) bool { return y != 0 }

// kernelInputs are the local inputs of lib-kernels; the ladder pushes the
// same ones through the lower layers.
type kernelInputs struct {
	er, rmat *sparse.CSR[float64]
	x2, x20  *sparse.Vec[float64] // frontiers on er at densities 2% and 20%
	xr       *sparse.Vec[float64] // frontier on rmat at 2%
	v        *sparse.Vec[float64] // the 2^19-of-2^21 vector Apply/Assign/EWiseMult use
	dense    *sparse.Dense[float64]
	xd       []float64 // dense SpMV operand on er
	sources  []int     // BFS sources on rmat
	genERS   float64   // host seconds spent generating er / rmat
	genRMATS float64
}

func genKernelInputs(seed int64) (*kernelInputs, error) {
	in := &kernelInputs{}
	t0 := time.Now()
	in.er = sparse.ErdosRenyi[float64](1<<kernERScale, meanDegree, subSeed(seed, "kern-er"))
	in.genERS = time.Since(t0).Seconds()
	t0 = time.Now()
	var err error
	in.rmat, err = sparse.RMAT[float64](kernRMATScale, meanDegree, subSeed(seed, "kern-rmat"))
	if err != nil {
		return nil, err
	}
	in.genRMATS = time.Since(t0).Seconds()
	n := in.er.NRows
	in.x2 = sparse.RandomVec[float64](n, n/50, subSeed(seed, "kern-x2"))
	in.x20 = sparse.RandomVec[float64](n, n/5, subSeed(seed, "kern-x20"))
	in.xr = sparse.RandomVec[float64](in.rmat.NRows, in.rmat.NRows/50, subSeed(seed, "kern-xr"))
	in.v = sparse.RandomVec[float64](kernVecCap, kernVecNNZ, subSeed(seed, "kern-v"))
	in.dense = sparse.RandomBoolDense[float64](kernVecCap, 0.5, subSeed(seed, "kern-dense"))
	in.xd = randomFloats(n, subSeed(seed, "kern-xd"))
	in.sources = pickSources(in.rmat, sourcePool, subSeed(seed, "kern-src"))
	return in, nil
}

// randomFloats is a seeded dense SpMV operand in [0, 1).
func randomFloats(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	return xs
}

func gbVec(ctx *gb.Context, v *sparse.Vec[float64]) (*gb.Vector[float64], error) {
	return gb.VectorFromSlices(ctx, v.N, v.Ind, v.Val)
}

// spmspvCall builds a pattern-SpMSpV call and its checker.
func spmspvCall(name string, ctx *gb.Context, m *gb.Matrix[float64], a *sparse.CSR[float64], x *sparse.Vec[float64]) (libCall, error) {
	gx, err := gbVec(ctx, x)
	if err != nil {
		return libCall{}, err
	}
	var want []int
	return libCall{
		name: name, ctx: ctx,
		run: func(int) (any, error) {
			y, err := gb.SpMSpV(m, gx)
			if err != nil {
				return nil, err
			}
			return y, ctx.Wait()
		},
		verify: func(_ int, res any) error {
			if want == nil {
				want = core.RefSpMSpVPattern(a, x).Ind
			}
			ind, val := res.(*gb.Vector[int64]).Entries()
			return checkSpMSpV(a, x, ind, val, want)
		},
	}, nil
}

// spmvCall builds a dense SpMV call over (+,×) and its checker.
func spmvCall(name string, ctx *gb.Context, m *gb.Matrix[float64], a *sparse.CSR[float64], x []float64) libCall {
	gx := gb.DenseVectorFromSlice(ctx, append([]float64(nil), x...))
	sr := gb.PlusTimes[float64]()
	var want []float64
	return libCall{
		name: name, ctx: ctx,
		run: func(int) (any, error) {
			y, err := gb.SpMV(m, gx, sr)
			if err != nil {
				return nil, err
			}
			return y, ctx.Wait()
		},
		verify: func(_ int, res any) error {
			if want == nil {
				want = core.RefSpMV(a, x, semiring.PlusTimes[float64]())
			}
			y := res.(*gb.DenseVector[float64])
			got := make([]float64, len(want))
			for i := range got {
				got[i] = y.Get(i)
			}
			return closeFloats(name, got, want, 1e-9)
		},
	}
}

// bfsCall builds a BFS call rotating over a source pool, and its checker.
func bfsCall(name string, ctx *gb.Context, m *gb.Matrix[float64], a *sparse.CSR[float64], sources []int) libCall {
	want := map[int][]int64{}
	return libCall{
		name: name, ctx: ctx,
		run: func(i int) (any, error) { return gb.BFS(ctx, m, sources[i%len(sources)]) },
		verify: func(i int, res any) error {
			src := sources[i%len(sources)]
			if want[src] == nil {
				want[src] = algorithms.RefBFS(a, src)
			}
			r := res.(*gb.BFSResult)
			return checkBFS(a, src, r.Level, r.Parent, want[src])
		},
	}
}

// setupKernels is lib-kernels' set-up: generate, then distribute on one
// locale.
func setupKernels(seed int64) (*libWorkload, error) {
	in, err := genKernelInputs(seed)
	if err != nil {
		return nil, err
	}
	ctx, err := gb.New(gb.Locales(1), gb.Threads(kernThreads), gb.Workers(kernWorkers))
	if err != nil {
		return nil, err
	}
	msort, err := gb.New(gb.Locales(1), gb.Threads(kernThreads), gb.Workers(kernWorkers), gb.MergeSort)
	if err != nil {
		return nil, err
	}
	A := gb.MatrixFromCSR(ctx, in.er)
	R := gb.MatrixFromCSR(ctx, in.rmat)
	w := &libWorkload{name: "lib-kernels", kern: in}
	for _, c := range []struct {
		name string
		ctx  *gb.Context
		m    *gb.Matrix[float64]
		a    *sparse.CSR[float64]
		x    *sparse.Vec[float64]
	}{
		{"spmspv_er_f2", ctx, A, in.er, in.x2},
		{"spmspv_er_f20", ctx, A, in.er, in.x20},
		{"spmspv_rmat_f2", ctx, R, in.rmat, in.xr},
		{"spmspv_er_f2_msort", msort, A.WithContext(msort), in.er, in.x2},
	} {
		call, err := spmspvCall(c.name, c.ctx, c.m, c.a, c.x)
		if err != nil {
			return nil, err
		}
		w.calls = append(w.calls, call)
	}

	gv, err := gbVec(ctx, in.v)
	if err != nil {
		return nil, err
	}
	gw, err := gbVec(ctx, in.v)
	if err != nil {
		return nil, err
	}
	gdense := gb.DenseVectorFromSlice(ctx, in.dense.Data)
	applied := 0
	// current is what gv must hold after `applied` increments.
	current := func() *sparse.Vec[float64] {
		cur := in.v.Clone()
		for k := range cur.Val {
			cur.Val[k] += float64(applied)
		}
		return cur
	}
	sameAs := func(what string, got *gb.Vector[float64], want *sparse.Vec[float64]) error {
		ind, val := got.Entries()
		g := &sparse.Vec[float64]{N: want.N, Ind: ind, Val: val}
		if !g.Equal(want) {
			return fmt.Errorf("%s: result differs from the reference (%d stored, want %d)", what, len(ind), want.NNZ())
		}
		return nil
	}
	w.calls = append(w.calls,
		libCall{
			name: "apply_512k", ctx: ctx,
			run: func(int) (any, error) {
				gb.Apply(gv, plusOne)
				applied++
				return nil, ctx.Wait()
			},
			verify: func(int, any) error { return sameAs("apply", gv, current()) },
		},
		libCall{
			name: "assign_512k", ctx: ctx,
			run: func(int) (any, error) {
				if err := gb.Assign(gw, gv); err != nil {
					return nil, err
				}
				return nil, ctx.Wait()
			},
			verify: func(int, any) error { return sameAs("assign", gw, current()) },
		},
		libCall{
			name: "ewisemult_512k", ctx: ctx,
			run: func(int) (any, error) {
				z, err := gb.EWiseMult(gv, gdense, denseNonzero)
				if err != nil {
					return nil, err
				}
				return z, ctx.Wait()
			},
			verify: func(_ int, res any) error {
				return sameAs("ewisemult", res.(*gb.Vector[float64]), core.RefEWiseMultSD(current(), in.dense, denseNonzero))
			},
		},
		spmvCall("spmv_er", ctx, A, in.er, in.xd),
		bfsCall("bfs_rmat", ctx, R, in.rmat, in.sources),
	)
	return w, nil
}

// distInputs are the local inputs of lib-dist.
type distInputs struct {
	seed          int64
	er, rmat, mxm *sparse.CSR[float64]
	x2            *sparse.Vec[float64]
	xd            []float64
	srcER, srcRM  []int
}

func genDistInputs(seed int64) (*distInputs, error) {
	in := &distInputs{seed: seed}
	in.er = sparse.ErdosRenyi[float64](1<<distERScale, meanDegree, subSeed(seed, "dist-er"))
	var err error
	if in.rmat, err = sparse.RMAT[float64](distRMATScale, 8, subSeed(seed, "dist-rmat")); err != nil {
		return nil, err
	}
	if in.mxm, err = sparse.RMAT[float64](distMxMScale, 8, subSeed(seed, "dist-mxm")); err != nil {
		return nil, err
	}
	n := in.er.NRows
	in.x2 = sparse.RandomVec[float64](n, n/50, subSeed(seed, "dist-x2"))
	in.xd = randomFloats(n, subSeed(seed, "dist-xd"))
	in.srcER = pickSources(in.er, sourcePool, subSeed(seed, "dist-src-er"))
	in.srcRM = pickSources(in.rmat, sourcePool, subSeed(seed, "dist-src-rmat"))
	return in, nil
}

// setupDist is lib-dist's set-up: generate, then distribute over a 4x4 grid
// with one real worker, so every call is deterministic.
func setupDist(seed int64) (*libWorkload, error) {
	in, err := genDistInputs(seed)
	if err != nil {
		return nil, err
	}
	opts := []gb.Option{gb.Locales(distLocales), gb.Threads(distThreads), gb.Workers(1)}
	ctx, err := gb.New(opts...)
	if err != nil {
		return nil, err
	}
	chaos, err := gb.New(append(opts, gb.StandardChaosPlan(subSeed(seed, "dist-chaos")))...)
	if err != nil {
		return nil, err
	}
	A := gb.MatrixFromCSR(ctx, in.er)
	R := gb.MatrixFromCSR(ctx, in.rmat)
	S := gb.MatrixFromCSR(ctx, in.mxm)
	RC := gb.MatrixFromCSR(chaos, in.rmat)
	w := &libWorkload{name: "lib-dist", dist: in}

	spmspv, err := spmspvCall("spmspv_dist_f2", ctx, A, in.er, in.x2)
	if err != nil {
		return nil, err
	}
	sr := gb.PlusTimes[float64]()
	var wantMxM *sparse.CSR[float64]
	wantSSSP := map[int][]float64{}
	var wantPR []float64
	var wantCC []int64
	wantTri := int64(-1)
	w.calls = append(w.calls,
		spmspv,
		spmvCall("spmv_dist", ctx, A, in.er, in.xd),
		libCall{
			name: "mxm_summa", ctx: ctx,
			run: func(int) (any, error) {
				c, err := gb.MxM(S, S, sr)
				if err != nil {
					return nil, err
				}
				return c, ctx.Wait()
			},
			verify: func(_ int, res any) error {
				if wantMxM == nil {
					wantMxM = core.RefSpGEMM(in.mxm, in.mxm, semiring.PlusTimes[float64]())
				}
				got, err := res.(*gb.Matrix[float64]).ToCSR()
				if err != nil {
					return err
				}
				// R-MAT values are small integer multiplicities, so the
				// products sum exactly whatever the order.
				if !got.Equal(wantMxM) {
					return fmt.Errorf("mxm: product differs from the reference (%d nnz, want %d)", got.NNZ(), wantMxM.NNZ())
				}
				return nil
			},
		},
		bfsCall("bfs_rmat", ctx, R, in.rmat, in.srcRM),
		libCall{
			name: "sssp_er", ctx: ctx,
			run: func(i int) (any, error) {
				d, _, err := gb.SSSP(A, in.srcER[i%len(in.srcER)])
				return d, err
			},
			verify: func(i int, res any) error {
				src := in.srcER[i%len(in.srcER)]
				if wantSSSP[src] == nil {
					wantSSSP[src] = algorithms.RefSSSP(in.er, src)
				}
				// ER weights are integers below 100: path sums are exact.
				return closeFloats("dist", res.([]float64), wantSSSP[src], 0)
			},
		},
		libCall{
			name: "pagerank_rmat", ctx: ctx,
			run: func(int) (any, error) {
				r, _, err := gb.PageRank(R, prDamping, prTol, prMaxIter)
				return r, err
			},
			verify: func(_ int, res any) error {
				if wantPR == nil {
					wantPR, _ = refPageRank(in.rmat, prDamping, prTol, prMaxIter)
				}
				return closeFloats("ranks", res.([]float64), wantPR, 1e-9)
			},
		},
		libCall{
			name: "cc_rmat", ctx: ctx,
			run: func(int) (any, error) {
				l, _, err := gb.ConnectedComponents(R)
				return l, err
			},
			verify: func(_ int, res any) error {
				if wantCC == nil {
					wantCC = refCC(in.rmat)
				}
				return equalInt64s("labels", res.([]int64), wantCC)
			},
		},
		libCall{
			name: "triangles_rmat", ctx: ctx,
			run: func(int) (any, error) { return gb.TriangleCount(S) },
			verify: func(_ int, res any) error {
				if wantTri < 0 {
					wantTri = refTriangles(in.mxm)
				}
				if got := res.(int64); got != wantTri {
					return fmt.Errorf("triangles = %d, want %d", got, wantTri)
				}
				return nil
			},
		},
		bfsCall("bfs_rmat_chaos", chaos, RC, in.rmat, in.srcRM),
	)
	return w, nil
}

// callStats accumulates one call's samples over a window.
type callStats struct {
	ms       []float64
	modeledS float64
}

// libResult is what one closed-loop window measured.
type libResult struct {
	lat       []float64       // every op's latency, ms
	ends      []time.Duration // completion offsets on the busy clock
	busy      time.Duration   // time spent inside ops (checking excluded)
	cpu       time.Duration   // process CPU spent inside ops
	modeledS  float64
	perCall   []callStats
	attempted int
	failures
}

// runLib drives the call table round-robin for at least budget of busy time,
// finishing the cycle it is in so every call runs equally often (a zero
// budget is exactly one cycle). The busy clock counts only time inside calls:
// reference checks (the first cycle when checkFirst is set, and every
// verifyEvery-th) and calibration samples (at slice boundaries) stop it, so
// they cost the run wall time but not throughput. A call without a context or
// a checker (the ladder's direct rungs) is only timed.
func runLib(w *libWorkload, budget time.Duration, checkFirst bool, tr *spanLog, calib *calibLog) *libResult {
	r := &libResult{perCall: make([]callStats, len(w.calls))}
	slice := sliceSeconds * time.Second
	nextCalib := slice
	root := tr.reserve(w.name, 0, 0, time.Now())
	for cycle := 0; cycle == 0 || r.busy < budget; cycle++ {
		check := cycle%verifyEvery == verifyEvery-1 || (checkFirst && cycle == 0)
		for k := range w.calls {
			c := &w.calls[k]
			m0 := 0.0
			if c.ctx != nil {
				m0 = c.ctx.Elapsed()
			}
			cpu0 := selfCPU()
			t0 := time.Now()
			res, err := c.run(cycle)
			t1 := time.Now()
			r.cpu += selfCPU() - cpu0
			modeled := 0.0
			if c.ctx != nil {
				modeled = c.ctx.Elapsed() - m0
			}
			d := t1.Sub(t0)
			r.busy += d
			r.attempted++
			tr.add(c.name, root, r.attempted, t0, t1)
			if err != nil {
				r.fail(fmt.Errorf("%s: %w", c.name, err))
				continue
			}
			if check && c.verify != nil {
				if err := c.verify(cycle, res); err != nil {
					r.fail(fmt.Errorf("%s (cycle %d): %w", c.name, cycle, err))
					continue
				}
			}
			r.lat = append(r.lat, msOf(d))
			r.ends = append(r.ends, r.busy)
			r.modeledS += modeled
			r.perCall[k].ms = append(r.perCall[k].ms, msOf(d))
			r.perCall[k].modeledS += modeled
		}
		if calib != nil && r.busy >= nextCalib {
			calib.sample()
			nextCalib += slice
		}
	}
	tr.finish(root, time.Now())
	return r
}

// warmLib runs one checked cycle outside any window: caches fill, the
// references are computed, and every call is compared once (the "first pass").
func warmLib(w *libWorkload) *libResult { return runLib(w, 0, true, nil, nil) }

// add folds another window's counts into r's totals.
func (r *libResult) add(o *libResult) {
	r.attempted += o.attempted
	r.absorb(o.failures)
}

// opsPerSecond is the median rate over the window's slices.
func (r *libResult) opsPerSecond() float64 {
	return median(sliceRates(r.ends, r.busy, sliceSeconds*time.Second))
}
