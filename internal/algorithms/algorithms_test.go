package algorithms

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

func newRT(t *testing.T, p int) *locale.Runtime {
	t.Helper()
	rt, err := locale.New(machine.Edison(), p, 24)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// checkBFS validates a BFS result against the reference levels and checks
// the parent tree's internal consistency.
func checkBFS[T interface{ ~int64 | ~int32 | ~int }](t *testing.T, a *sparse.CSR[int64], res *BFSResult, want []int64) {
	t.Helper()
	for v := range want {
		if res.Level[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, res.Level[v], want[v])
		}
	}
	for v := range want {
		p := res.Parent[v]
		switch {
		case v == res.Source:
			if p != -1 {
				t.Fatalf("source parent = %d, want -1", p)
			}
		case res.Level[v] < 0:
			if p != -1 {
				t.Fatalf("unreachable vertex %d has parent %d", v, p)
			}
		default:
			if p < 0 {
				t.Fatalf("reached vertex %d lacks a parent", v)
			}
			if res.Level[int(p)] != res.Level[v]-1 {
				t.Fatalf("parent %d of %d is at level %d, want %d",
					p, v, res.Level[int(p)], res.Level[v]-1)
			}
			if _, ok := a.Get(int(p), v); !ok {
				t.Fatalf("parent edge %d->%d absent from graph", p, v)
			}
		}
	}
}

// onGrids runs body on a 1×1 grid and on a 2×2 one.
func onGrids(t *testing.T, body func(rt *locale.Runtime)) {
	t.Helper()
	for _, p := range []int{1, 4} {
		body(newRT(t, p))
	}
}

func TestBFSShmOnRing(t *testing.T) {
	a0 := sparse.Ring[int64](10)
	onGrids(t, func(rt *locale.Runtime) {
		res, err := BFSDist(rt, dist.MatFromCSR(rt, a0), 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 10; v++ {
			if res.Level[v] != int64(v) {
				t.Fatalf("p=%d: ring level[%d] = %d", rt.G.P, v, res.Level[v])
			}
		}
		checkBFS[int64](t, a0, res, RefBFS(a0, 0))
	})
}

func TestBFSShmRandom(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a0 := sparse.ErdosRenyi[int64](400, 4, seed)
		want := RefBFS(a0, 7)
		onGrids(t, func(rt *locale.Runtime) {
			res, err := BFSDist(rt, dist.MatFromCSR(rt, a0), 7)
			if err != nil {
				t.Fatal(err)
			}
			checkBFS[int64](t, a0, res, want)
		})
	}
}

func TestBFSShmDisconnected(t *testing.T) {
	// Two disjoint rings: vertices in the second stay unreachable.
	coo := sparse.NewCOO[int64](10, 10)
	for i := 0; i < 5; i++ {
		coo.Append(i, (i+1)%5, 1)
		coo.Append(5+i, 5+(i+1)%5, 1)
	}
	a0, err := coo.ToCSR(func(x, _ int64) int64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	onGrids(t, func(rt *locale.Runtime) {
		res, err := BFSDist(rt, dist.MatFromCSR(rt, a0), 0)
		if err != nil {
			t.Fatal(err)
		}
		for v := 5; v < 10; v++ {
			if res.Level[v] != -1 {
				t.Fatalf("p=%d: vertex %d should be unreachable", rt.G.P, v)
			}
		}
	})
}

func TestBFSShmErrors(t *testing.T) {
	onGrids(t, func(rt *locale.Runtime) {
		a := dist.MatFromCSR(rt, sparse.Ring[int64](5))
		if _, err := BFSDist(rt, a, -1); err == nil {
			t.Error("negative source accepted")
		}
		if _, err := BFSDist(rt, a, 5); err == nil {
			t.Error("out-of-range source accepted")
		}
		if _, err := BFSDist(rt, dist.MatFromCSR(rt, sparse.NewCSR[int64](3, 4)), 0); err == nil {
			t.Error("non-square matrix accepted")
		}
	})
}

func TestBFSDistMatchesShm(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](311, 5, 17)
	want := RefBFS(a0, 11)
	for _, p := range []int{1, 2, 4, 6, 9} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, a0)
		res, err := BFSDist(rt, a, 11)
		if err != nil {
			t.Fatal(err)
		}
		checkBFS[int64](t, a0, res, want)
	}
}

func TestBFSDistOnGrid(t *testing.T) {
	a0, err := sparse.Grid2D[int64](8, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := RefBFS(a0, 0)
	rt := newRT(t, 4)
	a := dist.MatFromCSR(rt, a0)
	res, err := BFSDist(rt, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkBFS[int64](t, a0, res, want)
	// Manhattan distance on the open grid: corner to corner is 14 hops.
	if res.Level[63] != 14 {
		t.Errorf("corner level = %d, want 14", res.Level[63])
	}
}

func TestSSSPMatchesReference(t *testing.T) {
	for _, seed := range []int64{4, 5} {
		a0 := sparse.ErdosRenyi[int64](200, 5, seed)
		want := RefSSSP(a0, 3)
		onGrids(t, func(rt *locale.Runtime) {
			got, rounds, err := SSSPDist(rt, dist.MatFromCSR(rt, a0), 3)
			if err != nil {
				t.Fatal(err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("seed=%d p=%d: dist[%d] = %d, want %d", seed, rt.G.P, v, got[v], want[v])
				}
			}
			if rounds < 1 {
				t.Error("no rounds recorded")
			}
		})
	}
}

func TestSSSPWeightedPath(t *testing.T) {
	// 0 -(5)-> 1 -(2)-> 2 and a direct 0 -(9)-> 2: shortest is 7.
	a0, err := sparse.CSRFromTriplets(3, 3,
		[]int{0, 1, 0}, []int{1, 2, 2}, []int64{5, 2, 9})
	if err != nil {
		t.Fatal(err)
	}
	onGrids(t, func(rt *locale.Runtime) {
		d, _, err := SSSPDist(rt, dist.MatFromCSR(rt, a0), 0)
		if err != nil {
			t.Fatal(err)
		}
		if d[2] != 7 {
			t.Errorf("p=%d: dist[2] = %d, want 7", rt.G.P, d[2])
		}
	})
}

func TestConnectedComponents(t *testing.T) {
	// Two rings of 5 made undirected.
	coo := sparse.NewCOO[int64](10, 10)
	for i := 0; i < 5; i++ {
		for _, e := range [][2]int{{i, (i + 1) % 5}, {5 + i, 5 + (i+1)%5}} {
			coo.Append(e[0], e[1], 1)
			coo.Append(e[1], e[0], 1)
		}
	}
	a0, err := coo.ToCSR(func(x, _ int64) int64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	onGrids(t, func(rt *locale.Runtime) {
		labels, count, err := CCDist(rt, dist.MatFromCSR(rt, a0))
		if err != nil {
			t.Fatal(err)
		}
		if count != 2 {
			t.Fatalf("p=%d: components = %d, want 2", rt.G.P, count)
		}
		for v := 0; v < 5; v++ {
			if labels[v] != 0 {
				t.Errorf("labels[%d] = %d, want 0", v, labels[v])
			}
			if labels[5+v] != 5 {
				t.Errorf("labels[%d] = %d, want 5", 5+v, labels[5+v])
			}
		}
		// Isolated vertices are their own components.
		_, count, err = CCDist(rt, dist.MatFromCSR(rt, sparse.NewCSR[int64](4, 4)))
		if err != nil {
			t.Fatal(err)
		}
		if count != 4 {
			t.Errorf("p=%d: isolated components = %d, want 4", rt.G.P, count)
		}
	})
}

func TestConnectedComponentsGrid(t *testing.T) {
	a0, err := sparse.Grid2D[int64](5, 7)
	if err != nil {
		t.Fatal(err)
	}
	onGrids(t, func(rt *locale.Runtime) {
		labels, count, err := CCDist(rt, dist.MatFromCSR(rt, a0))
		if err != nil {
			t.Fatal(err)
		}
		if count != 1 {
			t.Fatalf("p=%d: grid components = %d, want 1", rt.G.P, count)
		}
		for v, l := range labels {
			if l != 0 {
				t.Fatalf("p=%d: labels[%d] = %d, want 0", rt.G.P, v, l)
			}
		}
	})
}

func TestPageRankRing(t *testing.T) {
	// On a symmetric ring all vertices have equal rank 1/n.
	n := 8
	coo := sparse.NewCOO[float64](n, n)
	for i := 0; i < n; i++ {
		coo.Append(i, (i+1)%n, 1)
		coo.Append((i+1)%n, i, 1)
	}
	a0, err := coo.ToCSR(func(x, _ float64) float64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	onGrids(t, func(rt *locale.Runtime) {
		r, iters, err := PageRankDist(rt, dist.MatFromCSR(rt, a0), 0.85, 1e-12, 200)
		if err != nil {
			t.Fatal(err)
		}
		if iters < 1 {
			t.Error("no iterations")
		}
		sum := 0.0
		for _, x := range r {
			sum += x
			if x < 1.0/float64(n)-1e-6 || x > 1.0/float64(n)+1e-6 {
				t.Errorf("p=%d: ring rank %v, want %v", rt.G.P, x, 1.0/float64(n))
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("p=%d: ranks sum to %v, want 1", rt.G.P, sum)
		}
	})
}

func TestPageRankStar(t *testing.T) {
	// Star: all leaves point at the hub; the hub must rank highest and the
	// rank vector must sum to 1 (dangling hub handled).
	n := 6
	coo := sparse.NewCOO[float64](n, n)
	for i := 1; i < n; i++ {
		coo.Append(i, 0, 1)
	}
	a0, err := coo.ToCSR(func(x, _ float64) float64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	onGrids(t, func(rt *locale.Runtime) {
		r, _, err := PageRankDist(rt, dist.MatFromCSR(rt, a0), 0.85, 1e-10, 200)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for i, x := range r {
			sum += x
			if i > 0 && x >= r[0] {
				t.Errorf("p=%d: leaf %d rank %v >= hub rank %v", rt.G.P, i, x, r[0])
			}
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("p=%d: ranks sum to %v, want 1", rt.G.P, sum)
		}
	})
}

// triangleCount is TriangleCountDist on a fresh runtime of p locales.
func triangleCount(t *testing.T, p int, a0 *sparse.CSR[int64]) int64 {
	t.Helper()
	rt := newRT(t, p)
	got, err := TriangleCountDist(rt, dist.MatFromCSR(rt, a0))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestTriangleCount(t *testing.T) {
	// A single triangle plus a pendant edge: exactly one triangle.
	coo := sparse.NewCOO[int64](4, 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		coo.Append(e[0], e[1], 1)
		coo.Append(e[1], e[0], 1)
	}
	a, err := coo.ToCSR(func(x, _ int64) int64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		if got := triangleCount(t, p, a); got != 1 {
			t.Fatalf("p=%d: triangles = %d, want 1", p, got)
		}
	}
}

func TestTriangleCountRandomAgainstRef(t *testing.T) {
	for _, seed := range []int64{6, 7, 8} {
		a := symGraph(60, 5, seed)
		want := RefTriangleCount(a)
		for _, p := range []int{1, 4} {
			if got := triangleCount(t, p, a); got != want {
				t.Fatalf("seed=%d p=%d: triangles = %d, want %d", seed, p, got, want)
			}
		}
	}
}

func TestTriangleCountGridIsZero(t *testing.T) {
	a, err := sparse.Grid2D[int64](4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		if got := triangleCount(t, p, a); got != 0 {
			t.Fatalf("p=%d: grid has %d triangles, want 0", p, got)
		}
	}
}

// kTruss is KTrussDist on a fresh runtime of p locales, gathered.
func kTruss(t *testing.T, p int, a0 *sparse.CSR[int64], k int) (*sparse.CSR[int64], int) {
	t.Helper()
	rt := newRT(t, p)
	truss, rounds, err := KTrussDist(rt, dist.MatFromCSR(rt, a0), k)
	if err != nil {
		t.Fatal(err)
	}
	c, err := truss.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	return c, rounds
}

func TestKTrussTriangleGraph(t *testing.T) {
	// A triangle plus a pendant edge: the 3-truss keeps exactly the triangle.
	coo := sparse.NewCOO[int64](4, 4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		coo.Append(e[0], e[1], 1)
		coo.Append(e[1], e[0], 1)
	}
	a, err := coo.ToCSR(func(x, _ int64) int64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		truss, rounds := kTruss(t, p, a, 3)
		if rounds < 1 {
			t.Error("no rounds")
		}
		if truss.NNZ() != 6 { // 3 undirected edges stored twice
			t.Fatalf("p=%d: 3-truss has %d stored edges, want 6", p, truss.NNZ())
		}
		if _, ok := truss.Get(2, 3); ok {
			t.Error("pendant edge survived")
		}
		checkTrussSupport(t, truss, 3)
		// 4-truss of a single triangle is empty.
		if empty, _ := kTruss(t, p, a, 4); empty.NNZ() != 0 {
			t.Fatalf("p=%d: 4-truss should be empty, has %d", p, empty.NNZ())
		}
	}
}

func TestKTrussMatchesRef(t *testing.T) {
	for _, seed := range []int64{9, 10} {
		a := symGraph(40, 6, seed)
		for _, k := range []int{3, 4} {
			want := RefKTruss(a, k)
			for _, p := range []int{1, 4} {
				if truss, _ := kTruss(t, p, a, k); truss.NNZ() != want {
					t.Fatalf("seed=%d k=%d p=%d: truss edges %d, want %d", seed, k, p, truss.NNZ(), want)
				}
			}
		}
	}
}

func TestKTrussErrors(t *testing.T) {
	onGrids(t, func(rt *locale.Runtime) {
		if _, _, err := KTrussDist(rt, dist.MatFromCSR(rt, sparse.Ring[int64](5)), 2); err == nil {
			t.Error("k<3 accepted")
		}
		if _, _, err := KTrussDist(rt, dist.MatFromCSR(rt, sparse.NewCSR[int64](2, 3)), 3); err == nil {
			t.Error("non-square accepted")
		}
	})
}

// TestTwoHopCounts counts the directed two-edge paths the way the analytics
// example does — the plus-times square of the pattern, reduced by rows and
// then to one value — against counts that are known in closed form.
func TestTwoHopCounts(t *testing.T) {
	// Directed path 0->1->2: exactly one two-hop path. Ring of n: every
	// vertex starts exactly one 2-path.
	path, err := sparse.CSRFromTriplets(3, 3, []int{0, 1}, []int{1, 2}, []int64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		a    *sparse.CSR[int64]
		want int64
	}{{path, 1}, {sparse.Ring[int64](7), 7}} {
		onGrids(t, func(rt *locale.Runtime) {
			p := distStructural[int64](rt, dist.MatFromCSR(rt, tc.a))
			sq, err := core.SpGEMMDist(rt, p, p, semiring.PlusTimes[int64]())
			if err != nil {
				t.Fatal(err)
			}
			rows := core.ReduceRowsDist(rt, sq, semiring.PlusMonoid[int64]())
			got, err := core.ReduceDist(rt, rows, semiring.PlusMonoid[int64]())
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("p=%d: two-hop count = %d, want %d", rt.G.P, got, tc.want)
			}
		})
	}
}
