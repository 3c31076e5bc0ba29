package gb_test

import (
	"fmt"

	"repro/gb"
)

// ExampleBFS demonstrates the GraphBLAS-composed breadth-first search on a
// small deterministic graph: a directed 6-cycle, where the hop distance from
// vertex 0 is the vertex id itself.
func ExampleBFS() {
	ctx, _ := gb.New(gb.Locales(2), gb.Threads(4))
	n := 6
	rows := make([]int, n)
	cols := make([]int, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		rows[i], cols[i], vals[i] = i, (i+1)%n, 1
	}
	a, _ := gb.MatrixFromTriplets(ctx, n, n, rows, cols, vals)
	res, _ := gb.BFS(ctx, a, 0)
	fmt.Println(res.Level)
	// Output: [0 1 2 3 4 5]
}

// ExampleApply doubles every stored value of a sparse vector and sums it.
func ExampleApply() {
	ctx, _ := gb.New(gb.Locales(2), gb.Threads(4))
	v, _ := gb.VectorFromSlices(ctx, 8, []int{1, 4, 6}, []int64{10, 20, 30})
	gb.Apply(v, func(x int64) int64 { return 2 * x })
	fmt.Println(gb.Reduce(v, gb.PlusMonoid[int64]()))
	// Output: 120
}

// ExampleSpMSpV shows one traversal hop: starting from vertex 2 on a 4-cycle,
// the product reaches vertex 3 and records the discovering row.
func ExampleSpMSpV() {
	ctx, _ := gb.New(gb.Locales(1), gb.Threads(1))
	a, _ := gb.MatrixFromTriplets(ctx, 4, 4,
		[]int{0, 1, 2, 3}, []int{1, 2, 3, 0}, []int64{1, 1, 1, 1})
	x, _ := gb.VectorFromSlices(ctx, 4, []int{2}, []int64{1})
	y, _ := gb.SpMSpV(a, x)
	ind, val := y.Entries()
	fmt.Println(ind, val)
	// Output: [3] [2]
}

// ExampleSSSP computes weighted shortest paths on a three-vertex graph with
// a shortcut that is longer than the two-hop route.
func ExampleSSSP() {
	ctx, _ := gb.New(gb.Locales(2), gb.Threads(4))
	a, _ := gb.MatrixFromTriplets(ctx, 3, 3,
		[]int{0, 1, 0}, []int{1, 2, 2}, []int64{5, 2, 9})
	dist, _, _ := gb.SSSP(a, 0)
	fmt.Println(dist[0], dist[1], dist[2])
	// Output: 0 5 7
}

// ExampleEWiseMult filters a sparse vector with a dense Boolean mask, the
// paper's specialized element-wise multiply.
func ExampleEWiseMult() {
	ctx, _ := gb.New(gb.Locales(2), gb.Threads(4))
	x, _ := gb.VectorFromSlices(ctx, 6, []int{0, 2, 4}, []int64{7, 8, 9})
	mask := gb.NewDenseVector[int64](ctx, 6)
	mask.Set(2, 1)
	mask.Set(4, 1)
	z, _ := gb.EWiseMult(x, mask, func(_, m int64) bool { return m != 0 })
	ind, val := z.Entries()
	fmt.Println(ind, val)
	// Output: [2 4] [8 9]
}
