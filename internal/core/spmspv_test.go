package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/semiring"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// checkPatternAndDiscoverers validates a pattern-SpMSpV result: the index
// pattern must equal the reference's, and each value must be a valid
// discovering row (a row selected by x that holds the column).
func checkPatternAndDiscoverers[T semiring.Number](t *testing.T, a *sparse.CSR[T], x *sparse.Vec[T], y *sparse.Vec[int64]) {
	t.Helper()
	want := RefSpMSpVPattern(a, x)
	if len(y.Ind) != len(want.Ind) {
		t.Fatalf("pattern size %d, want %d", len(y.Ind), len(want.Ind))
	}
	for k := range y.Ind {
		if y.Ind[k] != want.Ind[k] {
			t.Fatalf("pattern index %d: %d, want %d", k, y.Ind[k], want.Ind[k])
		}
	}
	inX := make(map[int]bool, x.NNZ())
	for _, i := range x.Ind {
		inX[i] = true
	}
	for k, j := range y.Ind {
		rid := int(y.Val[k])
		if !inX[rid] {
			t.Fatalf("y[%d] discoverer %d is not a selected row", j, rid)
		}
		if _, ok := a.Get(rid, j); !ok {
			t.Fatalf("y[%d] discoverer %d does not hold column %d", j, rid, j)
		}
	}
}

func TestSpMSpVShmPattern(t *testing.T) {
	a := sparse.ErdosRenyi[int64](500, 8, 31)
	x := sparse.RandomVec[int64](500, 40, 32)
	for _, workers := range []int{1, 2, 8} {
		y, st := SpMSpVShm(a, x, ShmConfig{Workers: workers})
		if err := y.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkPatternAndDiscoverers(t, a, x, y)
		if st.RowsSelected != 40 || st.NnzOut != y.NNZ() || st.EntriesVisited == 0 {
			t.Errorf("workers=%d: stats wrong: %+v", workers, st)
		}
	}
}

func TestSpMSpVShmDeterministicSingleWorker(t *testing.T) {
	a := sparse.ErdosRenyi[int32](300, 6, 1)
	x := sparse.RandomVec[int32](300, 30, 2)
	y1, _ := SpMSpVShm(a, x, ShmConfig{Workers: 1})
	y2, _ := SpMSpVShm(a, x, ShmConfig{Workers: 1})
	if !y1.Equal(y2) {
		t.Fatal("single-worker SpMSpV not deterministic")
	}
}

func TestSpMSpVShmRadixMatchesMerge(t *testing.T) {
	a := sparse.ErdosRenyi[int64](400, 10, 3)
	x := sparse.RandomVec[int64](400, 50, 4)
	ym, _ := SpMSpVShm(a, x, ShmConfig{Engine: EngineMergeSort})
	yr, _ := SpMSpVShm(a, x, ShmConfig{Engine: EngineRadixSort})
	if !ym.Equal(yr) {
		t.Fatal("radix-sorted result differs from merge-sorted")
	}
}

func TestSpMSpVShmEdgeCases(t *testing.T) {
	a := sparse.ErdosRenyi[int64](100, 5, 5)
	// Empty input vector.
	y, st := SpMSpVShm(a, sparse.NewVec[int64](100), ShmConfig{})
	if y.NNZ() != 0 || st.EntriesVisited != 0 {
		t.Error("empty x should give empty y")
	}
	// Full input vector reaches every nonempty column.
	full := sparse.NewVec[int64](100)
	for i := 0; i < 100; i++ {
		full.Ind = append(full.Ind, i)
		full.Val = append(full.Val, 1)
	}
	y2, _ := SpMSpVShm(a, full, ShmConfig{})
	colHasEntry := make([]bool, 100)
	for _, j := range a.ColIdx {
		colHasEntry[j] = true
	}
	wantCols := 0
	for _, b := range colHasEntry {
		if b {
			wantCols++
		}
	}
	if y2.NNZ() != wantCols {
		t.Errorf("full x reached %d columns, want %d", y2.NNZ(), wantCols)
	}
	// Empty matrix.
	y3, _ := SpMSpVShm(sparse.NewCSR[int64](100, 100), full, ShmConfig{})
	if y3.NNZ() != 0 {
		t.Error("empty matrix should give empty y")
	}
}

func TestSpMSpVShmSemiringMatchesReference(t *testing.T) {
	a := sparse.ErdosRenyi[int64](400, 8, 7)
	x := sparse.RandomVec[int64](400, 60, 8)
	for _, sr := range []semiring.Semiring[int64]{
		semiring.PlusTimes[int64](),
		semiring.MinPlus[int64](),
		semiring.LOrLAnd[int64](),
	} {
		want := RefSpMSpVSemiring(a, x, sr)
		for _, workers := range []int{1, 2, 4, 8} {
			y, _ := SpMSpVShmSemiring(a, x, sr, ShmConfig{Workers: workers})
			if err := y.Validate(); err != nil {
				t.Fatalf("%s workers=%d: %v", sr.Name, workers, err)
			}
			if !y.Equal(want) {
				t.Fatalf("%s workers=%d: differs from reference", sr.Name, workers)
			}
		}
	}
}

func TestSpMSpVDistMatchesShm(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](203, 7, 9) // odd size: ragged bands
	x0 := sparse.RandomVec[int64](203, 25, 10)
	want := RefSpMSpVPattern(a0, x0)
	for _, p := range []int{1, 2, 4, 6, 9, 16} {
		rt := newRT(t, p, 24)
		a := dist.MatFromCSR(rt, a0)
		x := dist.SpVecFromVec(rt, x0)
		y, st := SpMSpVDist(rt, a, x)
		if err := y.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		yv := y.ToVec()
		if len(yv.Ind) != len(want.Ind) {
			t.Fatalf("p=%d: pattern size %d, want %d", p, len(yv.Ind), len(want.Ind))
		}
		for k := range yv.Ind {
			if yv.Ind[k] != want.Ind[k] {
				t.Fatalf("p=%d: pattern differs at %d", p, k)
			}
		}
		// Discoverer validity in global ids.
		inX := make(map[int]bool)
		for _, i := range x0.Ind {
			inX[i] = true
		}
		for k, j := range yv.Ind {
			rid := int(yv.Val[k])
			if !inX[rid] {
				t.Fatalf("p=%d: discoverer %d not in x", p, rid)
			}
			if _, ok := a0.Get(rid, j); !ok {
				t.Fatalf("p=%d: discoverer %d lacks column %d", p, rid, j)
			}
		}
		if st.NnzOut != yv.NNZ() {
			t.Errorf("p=%d: stats NnzOut=%d, want %d", p, st.NnzOut, yv.NNZ())
		}
	}
}

func TestSpMSpVDistSemiringMatchesReference(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](151, 6, 11)
	x0 := sparse.RandomVec[int64](151, 20, 12)
	for _, sr := range []semiring.Semiring[int64]{
		semiring.PlusTimes[int64](),
		semiring.MinPlus[int64](),
	} {
		want := RefSpMSpVSemiring(a0, x0, sr)
		for _, p := range []int{1, 4, 6, 9} {
			rt := newRT(t, p, 24)
			a := dist.MatFromCSR(rt, a0)
			x := dist.SpVecFromVec(rt, x0)
			y, _ := SpMSpVDistSemiring(rt, a, x, sr)
			if err := y.Validate(); err != nil {
				t.Fatalf("%s p=%d: %v", sr.Name, p, err)
			}
			if !y.ToVec().Equal(want) {
				t.Fatalf("%s p=%d: differs from reference", sr.Name, p)
			}
		}
	}
}

// Fig 7 shape: in shared memory, sorting is the most expensive component and
// the total speedup at 24 threads is around the paper's 9-11x.
func TestSpMSpVModelSharedComponents(t *testing.T) {
	n := 100_000
	a := sparse.ErdosRenyi[int64](n, 16, 13)
	x := sparse.RandomVec[int64](n, n/50, 14) // f = 2%
	run := func(threads int) (total float64, phases map[string]float64) {
		s := sim.New(machine.Edison(), 1)
		_, _ = SpMSpVShm(a, x, ShmConfig{Threads: threads, Sim: s, Loc: 0, Phased: true})
		phases = map[string]float64{}
		for _, ph := range s.Phases() {
			phases[ph.Name] += ph.NS
		}
		return s.Elapsed(), phases
	}
	t1, ph1 := run(1)
	t24, _ := run(24)
	if ph1["Sorting"] <= ph1["SPA"] || ph1["Sorting"] <= ph1["Output"] {
		t.Errorf("sorting (%.1fms) should dominate SPA (%.1fms) and Output (%.1fms)",
			ph1["Sorting"]/1e6, ph1["SPA"]/1e6, ph1["Output"]/1e6)
	}
	speedup := t1 / t24
	if speedup < 7 || speedup > 16 {
		t.Errorf("SpMSpV 24-thread speedup = %.1f, want the paper's 9-11x", speedup)
	}
}

// The radix-sort ablation must reduce the sorting component substantially
// (the paper's expectation from its prior work).
func TestSpMSpVModelRadixAblation(t *testing.T) {
	n := 100_000
	a := sparse.ErdosRenyi[int64](n, 16, 13)
	x := sparse.RandomVec[int64](n, n/50, 14)
	sortTime := func(e Engine) float64 {
		s := sim.New(machine.Edison(), 1)
		_, _ = SpMSpVShm(a, x, ShmConfig{Threads: 24, Engine: e, Sim: s, Loc: 0, Phased: true})
		return phaseNS(s, "Sorting")
	}
	if m, r := sortTime(EngineMergeSort), sortTime(EngineRadixSort); r > m/4 {
		t.Errorf("radix sorting (%.2fms) should be <1/4 of merge sorting (%.2fms)", r/1e6, m/1e6)
	}
}

// Figs 8/9 shape: distributed, the local multiply scales with node count but
// the gather communication comes to dominate.
func TestSpMSpVModelDistributedShape(t *testing.T) {
	n := 100_000
	a0 := sparse.ErdosRenyi[int64](n, 16, 15)
	x0 := sparse.RandomVec[int64](n, n/50, 16)
	run := func(p int) (gather, local, scatter float64) {
		rt := newRT(t, p, 24)
		a := dist.MatFromCSR(rt, a0)
		x := dist.SpVecFromVec(rt, x0)
		_, _ = SpMSpVDist(rt, a, x)
		for _, ph := range rt.S.Phases() {
			switch ph.Name {
			case "Gather Input":
				gather += ph.NS
			case "Local Multiply":
				local += ph.NS
			case "Scatter Output":
				scatter += ph.NS
			}
		}
		return
	}
	g1, l1, _ := run(1)
	g64, l64, _ := run(64)
	if l1/l64 < 10 {
		t.Errorf("local multiply speedup 1->64 = %.1f, want substantial (paper: 43x)", l1/l64)
	}
	if g64 < 100*g1 {
		t.Errorf("gather at 64 nodes (%.2fms) should be orders of magnitude above 1 node (%.4fms)",
			g64/1e6, g1/1e6)
	}
	if g64 < l64 {
		t.Errorf("gather (%.2fms) should dominate local multiply (%.2fms) at 64 nodes",
			g64/1e6, l64/1e6)
	}
}

// phaseNS is the total recorded time of s's phases named name.
func phaseNS(s *sim.Sim, name string) float64 {
	total := 0.0
	for _, p := range s.Phases() {
		if p.Name == name {
			total += p.NS
		}
	}
	return total
}
