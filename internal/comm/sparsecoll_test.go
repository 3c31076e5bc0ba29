package comm

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/locale"
	"repro/internal/sparse"
)

// randSortedRuns builds one sorted duplicate-free (ind, val) run per locale,
// drawn from [0, n); vals encode (locale, position) so merges are traceable.
func randSortedRuns(p, n, maxLen int, seed int64) ([][]int, [][]int64) {
	rng := rand.New(rand.NewSource(seed))
	inds := make([][]int, p)
	vals := make([][]int64, p)
	for l := 0; l < p; l++ {
		m := rng.Intn(maxLen + 1)
		seen := map[int]bool{}
		for len(seen) < m {
			seen[rng.Intn(n)] = true
		}
		run := make([]int, 0, m)
		for i := range seen {
			run = append(run, i)
		}
		sort.Ints(run)
		inds[l] = run
		vals[l] = make([]int64, m)
		for k := range vals[l] {
			vals[l][k] = int64(l*1_000_000 + k)
		}
	}
	return inds, vals
}

func TestSparseRowAllGather(t *testing.T) {
	rt := newRT(t, 6) // 2x3 grid
	g := rt.G
	inds, vals := randSortedRuns(g.P, 500, 40, 71)
	outInd, outVal, err := SparseRowAllGather(rt, inds, vals)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < g.P; l++ {
		r, _ := g.Coords(l)
		// Reference: concatenate the row team's runs and stably sort by index.
		type pair struct {
			i int
			v int64
		}
		var ref []pair
		for _, src := range g.RowLocales(r) {
			for k, i := range inds[src] {
				ref = append(ref, pair{i, vals[src][k]})
			}
		}
		sort.SliceStable(ref, func(a, b int) bool { return ref[a].i < ref[b].i })
		if len(outInd[l]) != len(ref) {
			t.Fatalf("locale %d: merged %d elements, want %d", l, len(outInd[l]), len(ref))
		}
		for k, pr := range ref {
			if outInd[l][k] != pr.i || outVal[l][k] != pr.v {
				t.Fatalf("locale %d: element %d = (%d,%d), want (%d,%d)",
					l, k, outInd[l][k], outVal[l][k], pr.i, pr.v)
			}
		}
	}
	// Teammates' merged runs must not alias each other: rewriting one locale's
	// copy (as the bulk SpMSpV does when rebasing indices) must not leak.
	team := g.RowLocales(0)
	if len(outInd[team[0]]) > 0 {
		outInd[team[0]][0] = -42
		if outInd[team[1]][0] == -42 {
			t.Error("teammates share merged storage")
		}
	}
	if rt.S.Traffic().BulkOps == 0 {
		t.Error("all-gather charged no bulk transfers")
	}
	if rt.S.Traffic().FineOps != 0 {
		t.Error("all-gather charged fine-grained ops")
	}
}

func TestColMergeScatterFirstWins(t *testing.T) {
	rt := newRT(t, 4)
	n := 40
	// Index 7 and 25 are claimed by several sources; first source order wins.
	inds := [][]int{{7, 25}, {3, 7}, {25}, {}}
	vals := [][]int64{{100, 101}, {200, 201}, {300}, {}}
	outInd, outVal, err := ColMergeScatter(rt, n, inds, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	bounds := locale.BlockBounds(n, rt.G.P)
	got := map[int]int64{}
	for l := range outInd {
		for k, i := range outInd[l] {
			if i < bounds[l] || i >= bounds[l+1] {
				t.Fatalf("locale %d received index %d outside its block [%d,%d)",
					l, i, bounds[l], bounds[l+1])
			}
			got[i] = outVal[l][k]
		}
	}
	want := map[int]int64{3: 200, 7: 100, 25: 101}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i, v := range want {
		if got[i] != v {
			t.Errorf("index %d = %d, want %d (first source in locale order)", i, got[i], v)
		}
	}
}

func TestColMergeScatterMonoid(t *testing.T) {
	rt := newRT(t, 4)
	inds := [][]int{{7, 25}, {3, 7}, {25}, {}}
	vals := [][]int64{{100, 101}, {200, 201}, {300}, {}}
	outInd, outVal, err := ColMergeScatter(rt, 40, inds, vals, func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int64{}
	for l := range outInd {
		for k, i := range outInd[l] {
			got[i] = outVal[l][k]
		}
	}
	want := map[int]int64{3: 200, 7: 301, 25: 401}
	for i, v := range want {
		if got[i] != v {
			t.Errorf("index %d = %d, want accumulated %d", i, got[i], v)
		}
	}
}

// TestSparseCollectivesUnderFaults checks that a lossy-but-recoverable fault
// plan leaves both collectives' results bitwise unchanged while charging
// retries, and that a crashed locale surfaces as an error.
func TestSparseCollectivesUnderFaults(t *testing.T) {
	inds, vals := randSortedRuns(6, 300, 30, 72)

	clean := newRT(t, 6)
	cleanInd, _, err := SparseRowAllGather(clean, inds, vals)
	if err != nil {
		t.Fatal(err)
	}
	cleanScat, _, err := ColMergeScatter(clean, 300, inds, vals, nil)
	if err != nil {
		t.Fatal(err)
	}

	plan := fault.Plan{Seed: 11, DropProb: 0.2, DelayProb: 0.3, DelayNS: 50_000, CrashLocale: -1}
	faulty := newRT(t, 6).WithFault(plan)
	faultInd, _, err := SparseRowAllGather(faulty, inds, vals)
	if err != nil {
		t.Fatal(err)
	}
	faultScat, _, err := ColMergeScatter(faulty, 300, inds, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	for l := range cleanInd {
		if len(faultInd[l]) != len(cleanInd[l]) {
			t.Fatalf("locale %d: faulty all-gather changed the result", l)
		}
		for k := range cleanInd[l] {
			if faultInd[l][k] != cleanInd[l][k] {
				t.Fatalf("locale %d: faulty all-gather differs at %d", l, k)
			}
		}
		if len(faultScat[l]) != len(cleanScat[l]) {
			t.Fatalf("locale %d: faulty scatter changed the result", l)
		}
	}
	if faulty.S.Traffic().Retries == 0 {
		t.Error("20% drop plan caused no retries")
	}
	if faulty.S.Elapsed() <= clean.S.Elapsed() {
		t.Error("fault recovery did not slow the modeled clock")
	}

	crashed := newRT(t, 6).WithFault(fault.Plan{Seed: 1, CrashLocale: 2, CrashStep: 0})
	if _, _, err := SparseRowAllGather(crashed, inds, vals); err == nil {
		t.Error("all-gather ignored a crashed locale")
	} else if !errors.Is(err, fault.ErrLocaleLost) {
		t.Errorf("all-gather crash error = %v, want ErrLocaleLost", err)
	}
	crashed2 := newRT(t, 6).WithFault(fault.Plan{Seed: 1, CrashLocale: 2, CrashStep: 0})
	if _, _, err := ColMergeScatter(crashed2, 300, inds, vals, nil); err == nil {
		t.Error("scatter ignored a crashed locale")
	}
}

// TestKWayMergeDedup covers the one first-wins merge the module has: a single
// nonempty run is its own merge and comes back uncopied, empty runs merge to
// nothing, ties across runs resolve to the lowest run (the lowest source
// locale), and the caller-buffer form allocates nothing.
func TestKWayMergeDedup(t *testing.T) {
	scratch := sparse.NewScratchPool()
	one := []int{2, 5, 9}
	oneVal := []int64{20, 50, 90}
	ind, val := KWayMergeDedup(scratch, [][]int{{}, one, nil}, [][]int64{{}, oneVal, nil}, nil, nil, nil)
	if len(ind) != len(one) || &ind[0] != &one[0] || &val[0] != &oneVal[0] {
		t.Errorf("one nonempty run came back as (%v, %v), not the run itself", ind, val)
	}

	for _, runs := range [][][]int{nil, {{}, {}, {}}} {
		ind, val := KWayMergeDedup(scratch, runs, make([][]int64, len(runs)), nil, nil, nil)
		if len(ind) != 0 || len(val) != 0 {
			t.Errorf("%d empty runs merged to (%v, %v)", len(runs), ind, val)
		}
	}

	// vals encode the source: 100*run + position.
	runs := [][]int{{1, 4, 7}, {0, 4, 7, 9}, {4, 9, 12}}
	vals := [][]int64{{0, 1, 2}, {100, 101, 102, 103}, {200, 201, 202}}
	ind, val = KWayMergeDedup(scratch, runs, vals, nil, nil, nil)
	wantInd := []int{0, 1, 4, 7, 9, 12}
	wantVal := []int64{100, 0, 1, 2, 103, 202}
	if !slices.Equal(ind, wantInd) || !slices.Equal(val, wantVal) {
		t.Errorf("first-wins merge = (%v, %v), want (%v, %v)", ind, val, wantInd, wantVal)
	}
	ind, val = KWayMergeDedup(scratch, runs, vals, func(a, b int64) int64 { return a + b }, nil, nil)
	if wantSum := []int64{100, 0, 1 + 101 + 200, 2 + 102, 103 + 201, 202}; !slices.Equal(ind, wantInd) || !slices.Equal(val, wantSum) {
		t.Errorf("monoid merge = (%v, %v), want (%v, %v)", ind, val, wantInd, wantSum)
	}

	if outstanding := scratch.Outstanding(); outstanding != 0 {
		t.Errorf("%d arena loans outstanding", outstanding)
	}
	if raceEnabled {
		return // the race runtime allocates on its own
	}
	bufInd, bufVal := make([]int, 10), make([]int64, 10)
	if allocs := testing.AllocsPerRun(100, func() {
		ind, val = KWayMergeDedup(scratch, runs, vals, nil, bufInd, bufVal)
	}); allocs != 0 {
		t.Errorf("the caller-buffer merge allocates %.0f objects per call, want 0", allocs)
	}
	if &ind[0] != &bufInd[0] || !slices.Equal(val, wantVal) {
		t.Errorf("the caller-buffer merge returned (%v, %v) outside the lent buffers", ind, val)
	}
}
