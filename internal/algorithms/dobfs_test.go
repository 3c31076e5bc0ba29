package algorithms

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/sparse"
)

func TestDOBFSMatchesRefLevels(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a := sparse.ErdosRenyi[int64](500, 6, seed)
		want := RefBFS(a, 9)
		for _, p := range []int{1, 4} {
			for _, alpha := range []int{0, 2, 14, 1000000} { // always-pull .. never-pull
				rt := newRT(t, p)
				res, err := BFSDirectionOptimizing(rt, dist.MatFromCSR(rt, a), 9, alpha)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if res.Level[v] != want[v] {
						t.Fatalf("seed=%d p=%d alpha=%d: level[%d] = %d, want %d",
							seed, p, alpha, v, res.Level[v], want[v])
					}
				}
				// Parent consistency.
				for v := range want {
					q := res.Parent[v]
					if v == 9 || res.Level[v] < 0 {
						if q != -1 {
							t.Fatalf("vertex %d should have no parent", v)
						}
						continue
					}
					if res.Level[int(q)] != res.Level[v]-1 {
						t.Fatalf("p=%d alpha=%d: parent level wrong for %d", p, alpha, v)
					}
					if _, ok := a.Get(int(q), v); !ok {
						t.Fatalf("p=%d alpha=%d: parent edge %d->%d missing", p, alpha, q, v)
					}
				}
			}
		}
	}
}

func TestDOBFSUsesPullOnDenseFrontier(t *testing.T) {
	// A star graph from the hub: after one hop the frontier is n-1 vertices,
	// so alpha=2 forces a pull round; the result must still be correct.
	n := 100
	coo := sparse.NewCOO[int64](n, n)
	for i := 1; i < n; i++ {
		coo.Append(0, i, 1)
		coo.Append(i, 0, 1)
	}
	a, err := coo.ToCSR(func(x, _ int64) int64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		rt := newRT(t, p)
		res, err := BFSDirectionOptimizing(rt, dist.MatFromCSR(rt, a), 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		for v := 1; v < n; v++ {
			if res.Level[v] != 1 || res.Parent[v] != 0 {
				t.Fatalf("p=%d: star vertex %d: level %d parent %d", p, v, res.Level[v], res.Parent[v])
			}
		}
	}
}

func TestDOBFSErrors(t *testing.T) {
	rt := newRT(t, 4)
	if _, err := BFSDirectionOptimizing(rt, dist.MatFromCSR(rt, sparse.Ring[int64](5)), 9, 0); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := BFSDirectionOptimizing(rt, dist.MatFromCSR(rt, sparse.NewCSR[int64](2, 3)), 0, 0); err == nil {
		t.Error("non-square accepted")
	}
}

func TestBetweennessMatchesRef(t *testing.T) {
	for _, seed := range []int64{4, 5} {
		a := sparse.ErdosRenyi[int64](60, 4, seed)
		all := make([]int, 60)
		for i := range all {
			all[i] = i
		}
		got, err := BetweennessCentrality(a, all)
		if err != nil {
			t.Fatal(err)
		}
		want := RefBetweenness(a)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("seed=%d: bc[%d] = %v, want %v", seed, v, got[v], want[v])
			}
		}
	}
}

func TestBetweennessPathGraph(t *testing.T) {
	// Directed path 0->1->2->3->4: interior vertices lie on all paths
	// passing through them; bc[v] = (#sources before v) * (#sinks after v).
	n := 5
	coo := sparse.NewCOO[int64](n, n)
	for i := 0; i+1 < n; i++ {
		coo.Append(i, i+1, 1)
	}
	a, err := coo.ToCSR(func(x, _ int64) int64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4}
	bc, err := BetweennessCentrality(a, all)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 3, 4, 3, 0} // v=1: pairs (0,2),(0,3),(0,4); v=2: (0,3),(0,4),(1,3),(1,4)
	for v := range want {
		if math.Abs(bc[v]-want[v]) > 1e-12 {
			t.Fatalf("bc[%d] = %v, want %v", v, bc[v], want[v])
		}
	}
}

func TestBetweennessSampledSources(t *testing.T) {
	a := sparse.ErdosRenyi[int64](80, 4, 6)
	bc, err := BetweennessCentrality(a, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// A sample is a lower bound on the full count.
	full := RefBetweenness(a)
	for v := range bc {
		if bc[v] > full[v]+1e-9 {
			t.Fatalf("sampled bc[%d]=%v exceeds full %v", v, bc[v], full[v])
		}
	}
	if _, err := BetweennessCentrality(a, []int{-1}); err == nil {
		t.Error("bad source accepted")
	}
}
