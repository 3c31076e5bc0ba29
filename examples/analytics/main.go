// Analytics example: a small end-to-end graph-analytics pipeline on one
// synthetic social-style network — connected components, triangles, k-truss
// community cores, betweenness centrality and two-hop path counts — all
// through the gb library on a 2×2 locale grid (structural SpMV, masked
// SpGEMM, SpMSpV sweeps).
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/gb"
	"repro/internal/sparse"
)

func main() {
	// Build an undirected "caveman"-ish graph: 8 dense cliques of 12 vertices
	// plus sparse random bridges — communities with connectors.
	const (
		cliques    = 8
		cliqueSize = 12
		n          = cliques * cliqueSize
	)
	coo := sparse.NewCOO[int64](n, n)
	edge := func(u, v int) {
		coo.Append(u, v, 1)
		coo.Append(v, u, 1)
	}
	for c := 0; c < cliques; c++ {
		base := c * cliqueSize
		for i := 0; i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				edge(base+i, base+j)
			}
		}
	}
	// A ring of bridges between consecutive cliques (vertex 0 of each).
	for c := 0; c < cliques; c++ {
		edge(c*cliqueSize, ((c+1)%cliques)*cliqueSize)
	}
	a, err := coo.ToCSR(func(x, _ int64) int64 { return x })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d undirected edges\n", n, a.NNZ()/2)
	ctx, err := gb.New(gb.Locales(4))
	if err != nil {
		log.Fatal(err)
	}
	m := gb.MatrixFromCSR(ctx, a)

	// --- Connected components -------------------------------------------
	_, comps, err := gb.ConnectedComponents(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected components: %d (bridges join all cliques)\n", comps)

	// --- Triangles and k-truss -------------------------------------------
	tris, err := gb.TriangleCount(m)
	if err != nil {
		log.Fatal(err)
	}
	perClique := cliqueSize * (cliqueSize - 1) * (cliqueSize - 2) / 6
	fmt.Printf("triangles: %d (expect %d per clique x %d cliques = %d)\n",
		tris, perClique, cliques, perClique*cliques)

	truss, rounds, err := gb.KTruss(m, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5-truss: %d edges survive after %d pruning rounds (bridges drop out)\n",
		truss.NNZ()/2, rounds)

	// --- Betweenness centrality ------------------------------------------
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	bc, err := gb.BetweennessCentrality(m, all)
	if err != nil {
		log.Fatal(err)
	}
	type vb struct {
		v int
		b float64
	}
	top := make([]vb, n)
	for v, b := range bc {
		top[v] = vb{v, b}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].b > top[j].b })
	fmt.Println("top betweenness (the clique connectors):")
	for _, t := range top[:4] {
		fmt.Printf("  vertex %3d (clique %d, connector: %v)  bc = %.0f\n",
			t.v, t.v/cliqueSize, t.v%cliqueSize == 0, t.b)
	}

	// --- The same machinery, different semiring ----------------------------
	// Two-hop path counts: the plus-times square of the 0/1 adjacency matrix
	// counts the paths between each pair; summing its rows, then the row
	// sums, counts them all.
	sq, err := gb.MxM(m, m, gb.PlusTimes[int64]())
	if err != nil {
		log.Fatal(err)
	}
	two := gb.Reduce(gb.ReduceRows(sq, gb.PlusMonoid[int64]()), gb.PlusMonoid[int64]())
	fmt.Printf("two-hop directed paths: %d\n", two)
}
