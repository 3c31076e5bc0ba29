// SSSP example: single-source shortest paths as Bellman–Ford iteration over
// the (min, +) tropical semiring — the flagship demonstration of GraphBLAS's
// user-defined semirings: the same multiplication routine that does BFS on
// (min, second) computes shortest paths on (min, +).
package main

import (
	"fmt"
	"log"

	"repro/gb"
)

func main() {
	// A small weighted road-network-like grid with a few shortcut edges.
	// Vertices are numbered row-major on a 10x10 grid; weights vary.
	const side = 10
	const n = side * side
	var rows, cols []int
	var vals []int64
	edge := func(u, v int, w int64) {
		rows = append(rows, u)
		cols = append(cols, v)
		vals = append(vals, w)
		rows = append(rows, v)
		cols = append(cols, u)
		vals = append(vals, w)
	}
	id := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				edge(id(r, c), id(r, c+1), int64(1+(r+c)%3))
			}
			if r+1 < side {
				edge(id(r, c), id(r+1, c), int64(1+(r*c)%4))
			}
		}
	}
	// Two express edges.
	edge(id(0, 0), id(5, 5), 9)
	edge(id(5, 5), id(9, 9), 9)

	ctx, err := gb.New(gb.Locales(4), gb.Threads(24))
	if err != nil {
		log.Fatal(err)
	}
	a, err := gb.MatrixFromTriplets(ctx, n, n, rows, cols, vals)
	if err != nil {
		log.Fatal(err)
	}

	dist, rounds, err := gb.SSSP(a, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SSSP from corner (0,0) converged in %d Bellman-Ford rounds\n\n", rounds)
	fmt.Println("distance field (rows of the grid):")
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			fmt.Printf("%4d", dist[id(r, c)])
		}
		fmt.Println()
	}
	fmt.Printf("\ncorner-to-corner distance: %d (express edges make it cheaper than the rim)\n",
		dist[id(side-1, side-1)])
}
