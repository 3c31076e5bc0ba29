// PageRank example: ranking the vertices of a scale-free R-MAT graph with
// repeated SpMV over the arithmetic semiring, plus connected components and
// triangle counting on the same graph — three classic analytics, one library.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/gb"
	"repro/internal/sparse"
)

func main() {
	// A scale-free R-MAT graph (Graph500 parameters), 4096 vertices.
	raw, err := sparse.RMAT[float64](12, 8, 2024)
	if err != nil {
		log.Fatal(err)
	}
	// Symmetrize and drop self-loops to get a simple undirected graph.
	coo := sparse.NewCOO[float64](raw.NRows, raw.NCols)
	for i := 0; i < raw.NRows; i++ {
		cs, _ := raw.Row(i)
		for _, j := range cs {
			if i != j {
				coo.Append(i, j, 1)
				coo.Append(j, i, 1)
			}
		}
	}
	sym, err := coo.ToCSR(func(x, _ float64) float64 { return x })
	if err != nil {
		log.Fatal(err)
	}

	ctx, err := gb.New(gb.Locales(8), gb.Threads(24))
	if err != nil {
		log.Fatal(err)
	}
	a := gb.MatrixFromCSR(ctx, sym)
	fmt.Printf("R-MAT graph: %d vertices, %d edges\n", a.NRows(), a.NNZ()/2)

	// --- PageRank ---------------------------------------------------------
	ranks, iters, err := gb.PageRank(a, 0.85, 1e-9, 200)
	if err != nil {
		log.Fatal(err)
	}
	type vr struct {
		v int
		r float64
	}
	top := make([]vr, len(ranks))
	for v, r := range ranks {
		top[v] = vr{v, r}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
	fmt.Printf("PageRank converged in %d iterations; top 5 hubs:\n", iters)
	for _, t := range top[:5] {
		fmt.Printf("  vertex %5d  rank %.5f\n", t.v, t.r)
	}

	// --- Connected components ---------------------------------------------
	_, comps, err := gb.ConnectedComponents(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected components: %d\n", comps)

	// --- Triangle counting -------------------------------------------------
	tris, err := gb.TriangleCount(a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangles: %d\n", tris)
}
