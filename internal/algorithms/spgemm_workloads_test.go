package algorithms

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/sparse"
)

// symGraph builds a simple undirected graph (symmetric pattern, no self
// loops) by symmetrizing an Erdős–Rényi draw.
func symGraph(n int, deg float64, seed int64) *sparse.CSR[int64] {
	g := sparse.ErdosRenyi[int64](n, deg, seed)
	coo := sparse.NewCOO[int64](n, n)
	for i := 0; i < n; i++ {
		cols, _ := g.Row(i)
		for _, j := range cols {
			if i != j {
				coo.Append(i, j, 1)
				coo.Append(j, i, 1)
			}
		}
	}
	a, err := coo.ToCSR(func(x, _ int64) int64 { return x })
	if err != nil {
		panic(err)
	}
	return a
}

func TestTriangleCountDistMatchesShm(t *testing.T) {
	for _, tc := range []struct {
		n    int
		deg  float64
		seed int64
	}{
		{60, 6, 401}, {121, 8, 402}, {40, 3, 403},
	} {
		a0 := symGraph(tc.n, tc.deg, tc.seed)
		want := RefTriangleCount(a0)
		for _, p := range []int{1, 3, 4, 9} {
			rt := newRT(t, p)
			a := dist.MatFromCSR(rt, a0)
			got, err := TriangleCountDist(rt, a)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("n=%d p=%d: distributed count %d, want %d", tc.n, p, got, want)
			}
		}
	}
}

func TestKTrussDistMatchesShm(t *testing.T) {
	a0 := symGraph(70, 7, 404)
	// The pruning rounds each k takes on this graph.
	pinnedRounds := map[int]int{3: 2, 4: 10, 5: 5}
	for _, k := range []int{3, 4, 5} {
		refEdges := RefKTruss(a0, k)
		for _, p := range []int{1, 4, 6} {
			rt := newRT(t, p)
			a := dist.MatFromCSR(rt, a0)
			got, rounds, err := KTrussDist(rt, a, k)
			if err != nil {
				t.Fatal(err)
			}
			if rounds != pinnedRounds[k] {
				t.Errorf("k=%d p=%d: %d rounds, want %d", k, p, rounds, pinnedRounds[k])
			}
			gotCSR, err := got.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			if gotCSR.NNZ() != refEdges {
				t.Errorf("k=%d p=%d: %d surviving edges, reference says %d", k, p, gotCSR.NNZ(), refEdges)
			}
			checkTrussSupport(t, gotCSR, k)
		}
	}
}

// checkTrussSupport checks that every edge of a k-truss holds its support —
// the number of triangles it closes within the truss, counted by brute force
// over common neighbours — and that the support is at least k-2.
func checkTrussSupport(t *testing.T, truss *sparse.CSR[int64], k int) {
	t.Helper()
	for i := 0; i < truss.NRows; i++ {
		cols, vals := truss.Row(i)
		for c, j := range cols {
			var common int64
			for _, w := range cols {
				if _, ok := truss.Get(j, w); ok && w != j {
					common++
				}
			}
			if vals[c] != common || common < int64(k-2) {
				t.Fatalf("k=%d: edge (%d,%d) holds %d, closes %d triangles in the truss", k, i, j, vals[c], common)
			}
		}
	}
}

func TestKTrussDistRejectsBadK(t *testing.T) {
	rt := newRT(t, 4)
	a := dist.MatFromCSR(rt, symGraph(20, 3, 405))
	if _, _, err := KTrussDist(rt, a, 2); err == nil {
		t.Error("k=2 accepted")
	}
}

func TestMSBFSDistMatchesPerSourceBFS(t *testing.T) {
	a0 := symGraph(90, 4, 406)
	sources := []int{0, 17, 55, 89}
	for _, p := range []int{1, 4, 6, 9} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, a0)
		levels, _, err := MSBFSDist(rt, a, sources)
		if err != nil {
			t.Fatal(err)
		}
		if len(levels) != len(sources) {
			t.Fatalf("p=%d: %d level rows for %d sources", p, len(levels), len(sources))
		}
		for si, s := range sources {
			want := RefBFS(a0, s)
			for v := range want {
				if levels[si][v] != want[v] {
					t.Fatalf("p=%d source %d: level[%d] = %d, want %d",
						p, s, v, levels[si][v], want[v])
				}
			}
		}
	}
}

func TestMSBFSDistDisconnected(t *testing.T) {
	// Two components: a triangle {0,1,2} and an isolated edge {3,4}.
	rows := []int{0, 1, 1, 2, 0, 2, 3, 4}
	cols := []int{1, 0, 2, 1, 2, 0, 4, 3}
	vals := make([]int64, len(rows))
	for i := range vals {
		vals[i] = 1
	}
	a0, err := sparse.CSRFromTriplets(5, 5, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, 4)
	a := dist.MatFromCSR(rt, a0)
	levels, _, err := MSBFSDist(rt, a, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if levels[0][3] != -1 || levels[0][4] != -1 {
		t.Error("source 0 reached the other component")
	}
	if levels[1][3] != 0 || levels[1][4] != 1 {
		t.Errorf("source 3 levels = %v", levels[1])
	}
	if levels[0][0] != 0 || levels[0][1] != 1 || levels[0][2] != 1 {
		t.Errorf("source 0 levels = %v", levels[0])
	}
}
