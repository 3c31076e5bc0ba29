package algorithms

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/sparse"
)

// streamingEM builds an EpochMat over two disjoint path components:
// 0-1-...-9 and 10-11-...-19 (undirected), so connectivity changes are easy
// to stage by inserting or deleting bridge edges.
func streamingEM(t *testing.T, p int) (*locale.Runtime, *dist.EpochMat[float64]) {
	t.Helper()
	rt := newRT(t, p)
	const n = 20
	coo := sparse.NewCOO[float64](n, n)
	addEdge := func(u, v int) {
		coo.Append(u, v, 1)
		coo.Append(v, u, 1)
	}
	for u := 0; u < 9; u++ {
		addEdge(u, u+1)
	}
	for u := 10; u < 19; u++ {
		addEdge(u, u+1)
	}
	a, err := coo.ToCSR(func(x, y float64) float64 { return y })
	if err != nil {
		t.Fatal(err)
	}
	return rt, dist.NewEpochMat(dist.MatFromCSR(rt, a))
}

func TestIncrementalCCWarmStart(t *testing.T) {
	rt, em := streamingEM(t, 4)

	st0, err := IncrementalCC(rt, em, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st0.Components != 2 {
		t.Fatalf("initial components = %d, want 2", st0.Components)
	}
	// Same epoch: the state comes back unchanged, no recompute.
	again, err := IncrementalCC(rt, em, st0)
	if err != nil {
		t.Fatal(err)
	}
	if again != st0 {
		t.Fatal("same-epoch refresh should return prev unchanged")
	}

	// Insert a bridge 9-10: insert-only interval, so the refresh warm-starts.
	// The warm result must be bitwise-identical to a cold recompute.
	for _, e := range [][2]int{{9, 10}, {10, 9}} {
		if err := em.Update(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := em.Flush(rt); err != nil {
		t.Fatal(err)
	}
	warm, err := IncrementalCC(rt, em, st0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := IncrementalCC(rt, em, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Components != 1 || cold.Components != 1 {
		t.Fatalf("components after bridge = warm %d / cold %d, want 1", warm.Components, cold.Components)
	}
	for v := range warm.Labels {
		if warm.Labels[v] != cold.Labels[v] {
			t.Fatalf("vertex %d: warm label %d != cold label %d", v, warm.Labels[v], cold.Labels[v])
		}
	}
	if warm.Rounds > cold.Rounds {
		t.Fatalf("warm start took %d rounds, cold %d — warm must not be slower", warm.Rounds, cold.Rounds)
	}
	if warm.Epoch != em.Epoch() {
		t.Fatalf("state epoch %d, committed %d", warm.Epoch, em.Epoch())
	}

	// Delete the bridge again: the interval saw tombstones, so the refresh
	// must fall back to a cold start (stale merged labels would be wrong).
	for _, e := range [][2]int{{9, 10}, {10, 9}} {
		if err := em.Delete(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := em.Flush(rt); err != nil {
		t.Fatal(err)
	}
	split, err := IncrementalCC(rt, em, warm)
	if err != nil {
		t.Fatal(err)
	}
	if split.Components != 2 {
		t.Fatalf("components after unbridging = %d, want 2", split.Components)
	}
	ref, err := IncrementalCC(rt, em, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range split.Labels {
		if split.Labels[v] != ref.Labels[v] {
			t.Fatalf("vertex %d after delete: label %d != cold label %d", v, split.Labels[v], ref.Labels[v])
		}
	}
}

// TestIncrementalCCIgnoresForeignLabels: a previous state whose labels were
// rewritten to name no vertex warm-starts nothing; the refresh is the cold
// one.
func TestIncrementalCCIgnoresForeignLabels(t *testing.T) {
	rt, em := streamingEM(t, 4)
	st0, err := IncrementalCC(rt, em, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := em.Update(9, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := em.Flush(rt); err != nil {
		t.Fatal(err)
	}
	cold, err := IncrementalCC(rt, em, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int64{-1, 20, math.MaxInt64} {
		prev := *st0
		prev.Labels = append([]int64(nil), st0.Labels...)
		prev.Labels[3] = bad
		got, err := IncrementalCC(rt, em, &prev)
		if err != nil {
			t.Fatal(err)
		}
		if got.Components != cold.Components || got.Rounds != cold.Rounds {
			t.Fatalf("label %d: %d components in %d rounds, cold %d in %d", bad, got.Components, got.Rounds, cold.Components, cold.Rounds)
		}
		for v := range got.Labels {
			if got.Labels[v] != cold.Labels[v] {
				t.Fatalf("label %d: vertex %d labelled %d, cold %d", bad, v, got.Labels[v], cold.Labels[v])
			}
		}
	}
}

func TestStreamingPageRankWarmStart(t *testing.T) {
	rt, em := streamingEM(t, 4)

	st0, err := StreamingPageRank(rt, em, 0.85, 1e-10, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := StreamingPageRank(rt, em, 0.85, 1e-10, 200, st0)
	if err != nil {
		t.Fatal(err)
	}
	if again != st0 {
		t.Fatal("same-epoch refresh should return prev unchanged")
	}

	// A small perturbation: one extra edge. Warm restart from the previous
	// ranks must converge in no more iterations than a cold start, to ranks
	// that agree within the convergence tolerance scale.
	if err := em.Update(3, 15, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := em.Flush(rt); err != nil {
		t.Fatal(err)
	}
	warm, err := StreamingPageRank(rt, em, 0.85, 1e-10, 200, st0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := StreamingPageRank(rt, em, 0.85, 1e-10, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iters > cold.Iters {
		t.Fatalf("warm start took %d iters, cold %d — warm must not be slower", warm.Iters, cold.Iters)
	}
	var l1 float64
	for v := range warm.Ranks {
		l1 += math.Abs(warm.Ranks[v] - cold.Ranks[v])
	}
	if l1 > 1e-6 {
		t.Fatalf("warm and cold ranks disagree: L1 distance %g", l1)
	}
	if warm.Epoch != em.Epoch() {
		t.Fatalf("state epoch %d, committed %d", warm.Epoch, em.Epoch())
	}
}
