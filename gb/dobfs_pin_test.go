package gb

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// dobfsPinGraphs are the inputs of TestDOBFSOutputPinned: an Erdős–Rényi
// graph, an R-MAT graph (skewed degrees, isolated vertices) and a directed
// graph whose edges mostly point from lower to higher ids, so in- and
// out-neighbours differ.
func dobfsPinGraphs(t *testing.T) map[string]*sparse.CSR[int64] {
	t.Helper()
	rmat, err := sparse.RMAT[int64](9, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	er := sparse.ErdosRenyi[int64](600, 6, 21)
	coo := sparse.NewCOO[int64](500, 500)
	src := sparse.ErdosRenyi[int64](500, 5, 33)
	for i := 0; i < src.NRows; i++ {
		cols, _ := src.Row(i)
		for _, j := range cols {
			if i < j || (i+j)%7 == 0 {
				coo.Append(i, j, 1)
			}
		}
	}
	directed, err := coo.ToCSR(func(x, _ int64) int64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*sparse.CSR[int64]{"er": er, "rmat": rmat, "directed": directed}
}

// shapedContext is New(opts...) moved onto an explicit pr×pc grid, one
// locale per node, keeping the options' fusion mode, engine and strategy.
func shapedContext(t *testing.T, pr, pc int, opts ...Option) *Context {
	t.Helper()
	ctx, err := New(append([]Option{Locales(pr * pc), Threads(8)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	g, err := locale.NewGridShape(pr, pc)
	if err != nil {
		t.Fatal(err)
	}
	rt := locale.NewWithGrid(machine.Edison(), g, ctx.rt.Threads)
	rt.Fusion, rt.Insp, rt.ShmEngine = ctx.rt.Fusion, ctx.rt.Insp, ctx.rt.ShmEngine
	ctx.rt = rt
	return ctx
}

// hashInt64s is the FNV-64a hash of the slices' entries, each as a
// little-endian int64, in order.
func hashInt64s(xs ...[]int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range xs {
		for _, v := range s {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// checkBFSParents asserts that every reached vertex but the source has a
// parent one level up with an edge to it, and that the source and the
// unreached vertices have none.
func checkBFSParents(t *testing.T, g *sparse.CSR[int64], res *BFSResult) {
	t.Helper()
	for v, p := range res.Parent {
		if v == res.Source || res.Level[v] < 0 {
			if p != -1 {
				t.Fatalf("vertex %d (level %d) has parent %d", v, res.Level[v], p)
			}
			continue
		}
		if p < 0 || res.Level[p] != res.Level[v]-1 {
			t.Fatalf("vertex %d at level %d: parent %d at level %d", v, res.Level[v], p, res.Level[max(p, 0)])
		}
		if _, ok := g.Get(int(p), v); !ok {
			t.Fatalf("parent edge %d->%d missing", p, v)
		}
	}
}

// TestDOBFSOutputPinned pins BFSDirectionOptimizing's output on every grid
// shape, eager and fused: the levels and parents of an all-pull run, and the
// levels of all-push, automatic and PullThreshold(14) runs, as FNV-64a
// hashes. A pull round's parent is the smallest frontier in-neighbour, so
// the all-pull parents are fixed; the other runs' parents are checked to be
// valid BFS parents.
func TestDOBFSOutputPinned(t *testing.T) {
	type pin struct{ pullLevelsParents, levels uint64 }
	want := map[string]pin{
		"er":       {0x841a11b3bb4cadd6, 0x9db672ae7d04b1e0},
		"rmat":     {0x43a6c2aea90c6604, 0x45aead9afc09bced},
		"directed": {0xdefbfe0206558372, 0xdfab690ed37da2a8},
	}
	dirs := []struct {
		name string
		opt  StrategyOption
	}{
		{"pull", ForcePull}, {"push", ForcePush}, {"auto", Auto}, {"threshold14", PullThreshold(14)},
	}
	shapes := [][2]int{{1, 1}, {2, 2}, {1, 4}, {4, 1}, {2, 3}, {1, 3}, {1, 7}}
	for name, g := range dobfsPinGraphs(t) {
		for _, sh := range shapes {
			for _, mode := range []FusionMode{Eager, Fused} {
				for _, d := range dirs {
					ctx := shapedContext(t, sh[0], sh[1], WithFusion(mode), WithStrategy(d.opt))
					res, err := BFSDirectionOptimizing(MatrixFromCSR(ctx, g), 3, 0)
					if err != nil {
						t.Fatal(err)
					}
					if h := hashInt64s(res.Level); h != want[name].levels {
						t.Errorf("%s on %dx%d (mode %d): levels hash %#x, want %#x", name+"/"+d.name, sh[0], sh[1], mode, h, want[name].levels)
					}
					if d.name == "pull" {
						if h := hashInt64s(res.Level, res.Parent); h != want[name].pullLevelsParents {
							t.Errorf("%s on %dx%d (mode %d): levels+parents hash %#x, want %#x", name+"/"+d.name, sh[0], sh[1], mode, h, want[name].pullLevelsParents)
						}
					}
					checkBFSParents(t, g, res)
				}
			}
		}
	}
}
