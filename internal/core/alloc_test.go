package core

import (
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// These tests pin down the tentpole guarantee of the zero-allocation work:
// once the runtime's worker pool and scratch arena are warm, the hot kernels
// allocate nothing per call. testing.AllocsPerRun runs with GOMAXPROCS(1) and
// reports the exact per-call allocation count, so any regression — a closure
// escaping onto the heap, a forgotten arena checkout, a variadic trace tag —
// fails the test with the precise number of bytes-worth of damage.

func incr[T int64 | float64](v T) T { return v + 1 }

// Where a test lists several seeds, the last input is shared across its
// kernel family: the shared-memory SpMSpV pins all run on ErdosRenyi(5000, 8,
// 1) × RandomVec(5000, 400, 2) (mask: density 0.3, seed 3), and the
// distributed element-wise and inspector pins on RandomVec(8000, 1500, 4)
// (dense operand: density 0.5, seed 5).

// warmups is how many calls prime the arena before measuring. More than one:
// the first calls size the pooled buffers, and buffers of several sizes
// settle into their roles over a few rounds.
const warmups = 5

func TestSpMSpVShmBucketZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	a := sparse.ErdosRenyi[int64](5000, 8, 1)
	x := sparse.RandomVec[int64](5000, 400, 2)
	rt := newRT(t, 1, 24)
	cfg := ShmConfig{
		Threads: 24,
		Workers: 1,
		Engine:  EngineBucket,
		Sim:     rt.S,
		Pool:    rt.WP,
		Scratch: rt.Scratch,
	}
	for i := 0; i < warmups; i++ {
		y, _ := SpMSpVShm(a, x, cfg)
		sparse.PutVec(cfg.Scratch, y)
	}
	avg := testing.AllocsPerRun(50, func() {
		y, _ := SpMSpVShm(a, x, cfg)
		sparse.PutVec(cfg.Scratch, y)
	})
	if avg != 0 {
		t.Fatalf("SpMSpVShm (bucket engine) allocates %.1f objects per steady-state call, want 0", avg)
	}
}

func TestSpMSpVShmBucketSemiringZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	sr := semiring.PlusTimes[int64]()
	for _, seed := range []int64{3, 1} {
		a := sparse.ErdosRenyi[int64](5000, 8, seed)
		x := sparse.RandomVec[int64](5000, 400, seed+1)
		rt := newRT(t, 1, 24)
		cfg := ShmConfig{
			Threads: 24,
			Workers: 1,
			Engine:  EngineBucket,
			Sim:     rt.S,
			Pool:    rt.WP,
			Scratch: rt.Scratch,
		}
		for i := 0; i < warmups; i++ {
			y, _ := SpMSpVShmSemiring(a, x, sr, cfg)
			sparse.PutVec(cfg.Scratch, y)
		}
		avg := testing.AllocsPerRun(50, func() {
			y, _ := SpMSpVShmSemiring(a, x, sr, cfg)
			sparse.PutVec(cfg.Scratch, y)
		})
		if avg != 0 {
			t.Errorf("seed %d: SpMSpVShmSemiring (bucket engine) allocates %.1f objects per steady-state call, want 0", seed, avg)
		}
	}
}

func TestEWiseMultSDIntoZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	for _, seed := range []int64{7, 4} {
		rt := newRT(t, 4, 24)
		x := dist.SpVecFromVec(rt, sparse.RandomVec[int64](8000, 1500, seed))
		y := dist.DenseVecFromDense(rt, sparse.RandomBoolDense[int64](8000, 0.5, seed+1))
		z := dist.NewSpVec[int64](rt, x.N)
		for i := 0; i < warmups; i++ {
			if err := EWiseMultSDInto(rt, x, y, keepWhenTrue[int64], z); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(50, func() {
			if err := EWiseMultSDInto(rt, x, y, keepWhenTrue[int64], z); err != nil {
				panic(err)
			}
		})
		if avg != 0 {
			t.Errorf("seed %d: EWiseMultSDInto allocates %.1f objects per steady-state call, want 0", seed, avg)
		}
	}
}

func TestApply2ZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	for _, seed := range []int64{9, 4} {
		rt := newRT(t, 4, 24)
		x := dist.SpVecFromVec(rt, sparse.RandomVec[int64](8000, 1500, seed))
		for i := 0; i < warmups; i++ {
			Apply2(rt, x, incr[int64])
		}
		avg := testing.AllocsPerRun(50, func() {
			Apply2(rt, x, incr[int64])
		})
		if avg != 0 {
			t.Errorf("seed %d: Apply2 allocates %.1f objects per steady-state call, want 0", seed, avg)
		}
	}
}

// TestSpMSpVMaskedZeroAllocSteadyState covers the masked wrapper: the
// intermediate unmasked product must come from — and return to — the arena.
func TestSpMSpVMaskedZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	for _, seed := range []int64{11, 1} {
		a := sparse.ErdosRenyi[int64](5000, 8, seed)
		x := sparse.RandomVec[int64](5000, 400, seed+1)
		mask := sparse.RandomBoolDense[int64](5000, 0.3, seed+2)
		rt := newRT(t, 1, 24)
		cfg := ShmConfig{
			Threads: 24,
			Workers: 1,
			Engine:  EngineBucket,
			Sim:     rt.S,
			Pool:    rt.WP,
			Scratch: rt.Scratch,
		}
		for i := 0; i < warmups; i++ {
			y, _ := SpMSpVMasked(a, x, mask, cfg)
			sparse.PutVec(cfg.Scratch, y)
		}
		avg := testing.AllocsPerRun(50, func() {
			y, _ := SpMSpVMasked(a, x, mask, cfg)
			sparse.PutVec(cfg.Scratch, y)
		})
		if avg != 0 {
			t.Errorf("seed %d: SpMSpVMasked allocates %.1f objects per steady-state call, want 0", seed, avg)
		}
	}
}

// TestFusedPushStepShmZeroAllocSteadyState covers the fused BFS push step:
// the SpMSpV product comes from the arena, the frontier is rebuilt in place,
// and the fused-region span is elided when tracing is off — so a warm call
// allocates nothing. The graph state is rewound between runs without
// allocating (the buffers keep their high-water capacity).
func TestFusedPushStepShmZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	const n, src = 5000, 3
	for _, seed := range []int64{17, 1} {
		a := sparse.ErdosRenyi[int64](n, 8, seed)
		rt := newRT(t, 1, 24)
		cfg := ShmConfig{
			Threads: 24,
			Workers: 1,
			Engine:  EngineBucket,
			Sim:     rt.S,
			Pool:    rt.WP,
			Scratch: rt.Scratch,
		}
		frontier := sparse.NewVec[int64](n)
		visited := sparse.NewDense[int64](n)
		levels := make([]int64, n)
		parents := make([]int64, n)
		reset := func() {
			for i := range visited.Data {
				visited.Data[i] = 0
				levels[i] = -1
				parents[i] = -1
			}
			visited.Data[src] = 1
			levels[src] = 0
			frontier.Ind = append(frontier.Ind[:0], src)
			frontier.Val = append(frontier.Val[:0], 1)
		}
		for i := 0; i < warmups; i++ {
			reset()
			FusedPushStepShm(a, frontier, visited, 1, levels, parents, cfg)
		}
		avg := testing.AllocsPerRun(50, func() {
			reset()
			FusedPushStepShm(a, frontier, visited, 1, levels, parents, cfg)
		})
		if avg != 0 {
			t.Errorf("seed %d: FusedPushStepShm allocates %.1f objects per steady-state call, want 0", seed, avg)
		}
	}
}

func TestSpGEMMLocalZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	scratch := sparse.NewScratchPool()
	sr := semiring.PlusTimes[int64]()
	a := sparse.ErdosRenyi[int64](2000, 6, 31)
	b := sparse.ErdosRenyi[int64](2000, 6, 32)
	hs := sparse.ErdosRenyi[int64](2000, 0.4, 33) // hypersparse: DCSC walk
	ga := sparse.ErdosRenyi[int64](3000, 6, 8)
	gb := sparse.ErdosRenyi[int64](3000, 6, 9)
	var out sparse.CSR[int64]
	cases := []struct {
		name string
		f    func()
	}{
		{"hash", func() { SpGEMMLocalHash(scratch, a, b, sr, &out, nil) }},
		{"heap", func() { SpGEMMLocalHeap(scratch, a, b, sr, &out, nil) }},
		{"heap hypersparse (DCSC)", func() { SpGEMMLocalHeap(scratch, hs, b, sr, &out, nil) }},
		{"dispatch n=3000", func() { SpGEMMLocal(scratch, ga, gb, sr, &out) }},
	}
	for i := 0; i < warmups; i++ {
		for _, tc := range cases {
			tc.f()
		}
	}
	for _, tc := range cases {
		if avg := testing.AllocsPerRun(50, tc.f); avg != 0 {
			t.Errorf("SpGEMMLocal %s allocates %.1f objects per steady-state call, want 0", tc.name, avg)
		}
	}
}

func TestDCSCConvertZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	for _, a := range []*sparse.CSR[int64]{
		sparse.ErdosRenyi[int64](3000, 2, 34),
		sparse.ErdosRenyi[int64](4000, 0.2, 10), // nnz < nrows: hypersparse
	} {
		var d sparse.DCSC[int64]
		for i := 0; i < warmups; i++ {
			d.FromCSR(a)
		}
		if avg := testing.AllocsPerRun(50, func() { d.FromCSR(a) }); avg != 0 {
			t.Errorf("%dx%d, nnz %d: DCSC.FromCSR allocates %.1f objects per steady-state call, want 0", a.NRows, a.NCols, a.NNZ(), avg)
		}
	}
}

// TestDistKernelAllocPins pins the steady-state allocation counts of the
// distributed kernels: what is left is the result (returned to the caller, so
// never pooled), the per-locale staging vectors of SpMSpVDist, and a handful
// of slice headers and closures. A count may be lowered, never raised. The
// SpMV stages run on arena loans, so FusedSpMVUpdate — which has no result —
// is pinned at one count for every vector length, as are SpGEMMDist and
// SpGEMMDistMasked at two densities: the stage panels are the resident blocks
// and the stage products come from the arena, so the count must not move with
// nnz, and the mask costs no object. The collector
// runs as it pleases throughout: the arena's free lists survive it.
func TestDistKernelAllocPins(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	sr := semiring.PlusTimes[float64]()
	const fusedPin = 5 // three per-locale header slices, the block bounds, the emit closure
	for _, tc := range []struct {
		locales, n   int
		spmspv, spmv float64
	}{
		{locales: 1, n: 5000, spmspv: 15, spmv: 7},
		{locales: 4, n: 5000, spmspv: 34, spmv: 10}, // 2x2 grid
		{locales: 4, n: 20000, spmspv: 34, spmv: 10},
	} {
		rt := newRT(t, tc.locales, 24)
		a := dist.MatFromCSR(rt, sparse.ErdosRenyi[float64](tc.n, 8, 41))
		x := dist.SpVecFromVec(rt, sparse.RandomVec[float64](tc.n, 400, 42))
		xd := dist.DenseVecFromDense(rt, sparse.NewDenseFill[float64](tc.n, 1.5))
		var sink float64
		update := func(_, _ int, v float64) { sink += v }
		for i := 0; i < warmups; i++ {
			SpMSpVDist(rt, a, x)
			if _, err := SpMVDist(rt, a, xd, sr); err != nil {
				t.Fatal(err)
			}
			if err := FusedSpMVUpdate(rt, a, xd, sr, update); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(50, func() { SpMSpVDist(rt, a, x) }); got > tc.spmspv {
			t.Errorf("%d locales, n=%d: SpMSpVDist allocates %.0f objects per steady-state call, pinned at %.0f", tc.locales, tc.n, got, tc.spmspv)
		}
		if got := testing.AllocsPerRun(50, func() { _, _ = SpMVDist(rt, a, xd, sr) }); got > tc.spmv {
			t.Errorf("%d locales, n=%d: SpMVDist allocates %.0f objects per steady-state call, pinned at %.0f", tc.locales, tc.n, got, tc.spmv)
		}
		if got := testing.AllocsPerRun(50, func() { _ = FusedSpMVUpdate(rt, a, xd, sr, update) }); got > fusedPin {
			t.Errorf("%d locales, n=%d: FusedSpMVUpdate allocates %.0f objects per steady-state call, pinned at %d", tc.locales, tc.n, got, fusedPin)
		}
		if n := rt.Scratch.Outstanding(); n != 0 {
			t.Errorf("%d locales, n=%d: %d arena loans outstanding", tc.locales, tc.n, n)
		}
	}

	sri := semiring.PlusTimes[int64]()
	for name, kernel := range map[string]func(rt *locale.Runtime, m *dist.Mat[int64]) error{
		"SpGEMMDist": func(rt *locale.Runtime, m *dist.Mat[int64]) error { _, err := SpGEMMDist(rt, m, m, sri); return err },
		"SpGEMMDistMasked": func(rt *locale.Runtime, m *dist.Mat[int64]) error {
			_, err := SpGEMMDistMasked(rt, m, m, m, sri)
			return err
		},
	} {
		var counts []float64
		for _, degree := range []float64{3, 12} {
			rt := newRT(t, 4, 24)
			m := dist.MatFromCSR(rt, sparse.ErdosRenyi[int64](1500, degree, 43))
			for i := 0; i < warmups; i++ {
				if err := kernel(rt, m); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(20, func() { _ = kernel(rt, m) })
			if got > spgemmPin {
				t.Errorf("%s at degree %g allocates %.0f objects per steady-state call, pinned at %d", name, degree, got, spgemmPin)
			}
			counts = append(counts, got)
		}
		if counts[0] != counts[1] {
			t.Errorf("%s allocates %.0f objects at degree 3 but %.0f at degree 12: staging scales with nnz", name, counts[0], counts[1])
		}
	}
}

// spgemmPin is SpGEMMDist's steady-state object count on a 2x2 grid: the
// descriptor, four result blocks, team lists, per-stage phase names.
const spgemmPin = 43

// TestArenaMixedTypesAndCollections is the regression test of the typed
// arena: SpGEMMDist[float64] and SpGEMMDistMasked[int64] alternate on one
// runtime — MxM beside TriangleCount — with a forced collection after each.
// Every call must still find its own stage buffers: the pair allocates twice
// the single-type pin and not an object more. (On sync.Pool categories shared
// across element types each call dropped the other's buffers and each
// collection emptied the rest: 3 851 objects per pair instead of 2 × 43.)
func TestArenaMixedTypesAndCollections(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	rt := newRT(t, 4, 24)
	srf, sri := semiring.PlusTimes[float64](), semiring.PlusTimes[int64]()
	mf := dist.MatFromCSR(rt, sparse.ErdosRenyi[float64](1500, 6, 44))
	mi := dist.MatFromCSR(rt, sparse.ErdosRenyi[int64](1500, 6, 44))
	pair := func() {
		if _, err := SpGEMMDist(rt, mf, mf, srf); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		if _, err := SpGEMMDistMasked(rt, mi, mi, mi, sri); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
	}
	for i := 0; i < warmups; i++ {
		pair()
	}
	collections := testing.AllocsPerRun(20, func() { runtime.GC(); runtime.GC() })
	if got := testing.AllocsPerRun(20, pair) - collections; got > 2*spgemmPin {
		t.Errorf("a float64/int64 pair of SUMMA calls allocates %.0f objects with a collection after each, pinned at 2 x %d", got, spgemmPin)
	}
	if n := rt.Scratch.Outstanding(); n != 0 {
		t.Errorf("%d arena loans outstanding", n)
	}
}

// The tests below pin the inspector, streaming and distributed-round kernels
// with an inspector attached where the round consults one.

// TestInspectorDispatchZeroAllocSteadyState: pricing both communication
// variants, recording the decision and feeding back the observed cost all
// run on the inspector's fixed ring and calibration arrays.
func TestInspectorDispatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	rt := newRT(t, 4, 24)
	rt.Insp = inspect.New(inspect.Strategy{})
	a := dist.MatFromCSR(rt, sparse.ErdosRenyi[int64](8000, 8, 7))
	x := dist.SpVecFromVec(rt, sparse.RandomVec[int64](8000, 1500, 4))
	dispatch := func() {
		est := EstimateSpMSpVComm(rt, a, x)
		choice := rt.Insp.DecideComm("SpMSpV", est.Fine, est.Bulk, ReasonSparseFrontier, ReasonDenseFrontier)
		rt.Insp.Observe(inspect.AxisComm, uint8(choice), est.Fine, est.Fine)
	}
	for i := 0; i < warmups; i++ {
		dispatch()
	}
	if avg := testing.AllocsPerRun(50, dispatch); avg != 0 {
		t.Fatalf("an inspector dispatch allocates %.1f objects per steady-state call, want 0", avg)
	}
}

// TestEpochIngestZeroAllocSteadyState: absorbing mutations appends into
// retained delta buffers, and a steady-state epoch merge runs entirely on
// recycled states, recycled block buffers and pooled scratch.
func TestEpochIngestZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	rt := newRT(t, 4, 24)
	em := dist.NewEpochMat(dist.MatFromCSR(rt, sparse.ErdosRenyi[int64](2000, 8, 6)))
	mutate := func() {
		for k := 0; k < 64; k++ {
			i, j := (k*7)%2000, (k*13+3)%2000
			var err error
			if k%8 == 0 {
				err = em.Delete(i, j)
			} else {
				err = em.Update(i, j, int64(k))
			}
			if err != nil {
				panic(err)
			}
		}
	}
	flush := func() {
		if _, err := em.Flush(rt); err != nil {
			panic(err)
		}
	}
	mutate()
	em.DiscardPending()
	if avg := testing.AllocsPerRun(50, func() { mutate(); em.DiscardPending() }); avg != 0 {
		t.Errorf("absorbing a mutation batch allocates %.1f objects per steady-state call, want 0", avg)
	}
	for i := 0; i < 2*dist.DefaultHistoryDepth+1; i++ {
		mutate()
		flush()
	}
	if avg := testing.AllocsPerRun(50, func() { mutate(); flush() }); avg != 0 {
		t.Errorf("an epoch merge allocates %.1f objects per steady-state call, want 0", avg)
	}
}

// spmvRoundPin is one SpMV round as SSSP, PageRank and CC run it, fused with
// its update on a 2x2 grid whose inspector routes the input placement:
// FusedSpMVUpdate's five objects (TestDistKernelAllocPins) and one more with
// the inspector attached.
const spmvRoundPin = 6

func TestSpMVDistRoundAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	rt := newRT(t, 4, 24)
	rt.Insp = inspect.New(inspect.Strategy{})
	sssp := semiring.MinPlus[float64]()
	a := dist.MatFromCSR(rt, sparse.ErdosRenyi[float64](8000, 8, 11))
	cur := dist.DenseVecFromDense(rt, sparse.NewDenseFill[float64](8000, 1.5))
	var relaxed float64
	round := func() {
		if err := FusedSpMVUpdate(rt, a, cur, sssp, func(_, _ int, v float64) { relaxed += v }); err != nil {
			panic(err)
		}
	}
	for i := 0; i < warmups; i++ {
		round()
	}
	if got := testing.AllocsPerRun(50, round); got > spmvRoundPin {
		t.Fatalf("an SpMV round allocates %.0f objects per steady-state call, pinned at %d", got, spmvRoundPin)
	}
}

// spgemmMixedPin is a float64 MxM and an int64 masked SpGEMM alternating on
// one 2x2-grid runtime, a collection after each, on a 1500-vertex input: TestArenaMixedTypesAndCollections' 2 x spgemmPin, and
// four more per call with an inspector choosing the broadcast placement.
const spgemmMixedPin = 94

func TestSpGEMMDistMixedAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-runtime shadow allocations")
	}
	rt := newRT(t, 4, 24)
	rt.Insp = inspect.New(inspect.Strategy{})
	srf, sri := semiring.PlusTimes[float64](), semiring.PlusTimes[int64]()
	mf := dist.MatFromCSR(rt, sparse.ErdosRenyi[float64](1500, 6, 12))
	mi := dist.MatFromCSR(rt, sparse.ErdosRenyi[int64](1500, 6, 12))
	pair := func() {
		if _, err := SpGEMMDist(rt, mf, mf, srf); err != nil {
			panic(err)
		}
		runtime.GC()
		if _, err := SpGEMMDistMasked(rt, mi, mi, mi, sri); err != nil {
			panic(err)
		}
		runtime.GC()
	}
	for i := 0; i < warmups; i++ {
		pair()
	}
	collections := testing.AllocsPerRun(20, func() { runtime.GC(); runtime.GC() })
	if got := testing.AllocsPerRun(20, pair) - collections; got > spgemmMixedPin {
		t.Fatalf("a float64/int64 pair of SUMMA calls allocates %.0f objects with a collection after each, pinned at %d", got, spgemmMixedPin)
	}
}
