// BFS example: breadth-first search — the "hello world" of GraphBLAS —
// composed from the library's SpMSpV, eWiseMult and Assign operations, run
// at several simulated machine sizes to show the communication/computation
// trade-off the paper analyzes.
package main

import (
	"fmt"
	"log"

	"repro/gb"
)

func main() {
	const n = 50_000

	fmt.Println("BFS over an Erdős–Rényi graph, n=50K, d=8, from vertex 0")
	fmt.Printf("%-8s %-12s %-12s %-10s %s\n", "locales", "reached", "rounds", "modeled", "messages")
	for _, p := range []int{1, 4, 16, 64} {
		ctx, err := gb.New(gb.Locales(p), gb.Threads(24))
		if err != nil {
			log.Fatal(err)
		}
		a := gb.ErdosRenyi[int64](ctx, n, 8, 99)
		ctx.ResetClock() // measure the traversal, not construction

		res, err := gb.BFS(ctx, a, 0)
		if err != nil {
			log.Fatal(err)
		}
		reached := 0
		var ecc int64
		for _, l := range res.Level {
			if l >= 0 {
				reached++
				if l > ecc {
					ecc = l
				}
			}
		}
		fmt.Printf("%-8d %-12d %-12d %-10s %d\n",
			p, reached, res.Rounds, fmt.Sprintf("%.2fms", ctx.Elapsed()*1e3), ctx.Messages())

		// The BFS tree is internally consistent: spot-check a few parents.
		for v := 1; v < 5; v++ {
			if res.Parent[v] >= 0 {
				p := int(res.Parent[v])
				if res.Level[p] != res.Level[v]-1 {
					log.Fatalf("inconsistent BFS tree at vertex %d", v)
				}
			}
		}
	}
	fmt.Println("\nNote: times come from the calibrated Edison model; the fine-grained")
	fmt.Println("gather/scatter traffic of SpMSpV dominates at scale, as in the paper.")
}
