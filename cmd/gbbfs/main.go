// gbbfs runs breadth-first search — the "hello world" of GraphBLAS — over a
// graph, composed entirely from the library's GraphBLAS operations (SpMSpV,
// eWiseMult, Assign). It reads a MatrixMarket file or generates an
// Erdős–Rényi graph, runs the BFS on one locale and on a locale grid, and the
// direction-optimizing BFS beside them, and reports levels, parents, and the
// modeled execution time.
//
// Usage:
//
//	gbbfs -n 100000 -d 8 -source 0            # generated graph
//	gbbfs -i graph.mtx -source 3 -locales 16  # from a file (.mtx or .bin), 16 locales
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/gb"
	"repro/internal/algorithms"
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
)

func main() {
	var (
		input   = flag.String("i", "", "MatrixMarket input file (default: generate)")
		n       = flag.Int("n", 100000, "generated graph dimension")
		d       = flag.Float64("d", 8, "generated expected degree")
		seed    = flag.Int64("seed", 1, "generator seed")
		source  = flag.Int("source", 0, "BFS source vertex")
		locales = flag.Int("locales", 4, "locale count for the distributed run")
		threads = flag.Int("threads", 24, "modeled threads per locale")
		strat   = flag.String("strategy", "auto", "direction strategy of the direction-optimizing run: 'auto' (cost-model dispatch, replaces the old alpha threshold), 'push', or 'pull'")
		pullThr = flag.Int("pull-threshold", 0, "replay the legacy alpha rule in the direction-optimizing run: pull while nnz(frontier) > n/threshold (0 = use -strategy)")
		verbose = flag.Bool("v", false, "print per-vertex levels (small graphs)")
	)
	flag.Parse()

	var dirStrat []gb.StrategyOption
	switch *strat {
	case "auto":
	case "push":
		dirStrat = append(dirStrat, gb.ForcePush)
	case "pull":
		dirStrat = append(dirStrat, gb.ForcePull)
	default:
		fatal(fmt.Errorf("-strategy must be 'auto', 'push' or 'pull', got %q", *strat))
	}
	if *pullThr != 0 {
		dirStrat = append(dirStrat, gb.PullThreshold(*pullThr))
	}

	var a *sparse.CSR[int64]
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(*input, ".bin") {
			a, err = sparse.ReadBinaryCSR[int64](f)
		} else {
			a, err = sparse.ReadMatrixMarket[int64](f)
		}
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		a = sparse.ErdosRenyi[int64](*n, *d, *seed)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", a.NRows, a.NNZ())

	// BFS on one locale.
	ctx, err := gb.New()
	if err != nil {
		fatal(err)
	}
	res, err := gb.BFS(ctx, gb.MatrixFromCSR(ctx, a), *source)
	if err != nil {
		fatal(err)
	}
	reach, maxLevel := summarize(res)
	fmt.Printf("one-locale BFS: reached %d vertices in %d rounds (eccentricity %d)\n",
		reach, res.Rounds, maxLevel)

	// Direction-optimizing BFS under the selected strategy (alpha = 0: the
	// per-round direction comes from the inspector, not a fixed threshold).
	dctx, err := gb.New(gb.Threads(*threads), gb.WithStrategy(dirStrat...))
	if err != nil {
		fatal(err)
	}
	dres0, err := gb.BFSDirectionOptimizing(gb.MatrixFromCSR(dctx, a), *source, 0)
	if err != nil {
		fatal(err)
	}
	doReach, doMax := summarize(dres0)
	fmt.Printf("direction-optimizing BFS (strategy=%s): reached %d vertices in %d rounds (eccentricity %d), modeled time %.3f ms\n",
		*strat, doReach, dres0.Rounds, doMax, dctx.Elapsed()*1e3)
	if reach != doReach {
		fatal(fmt.Errorf("plain and direction-optimizing BFS disagree: %d vs %d reached", reach, doReach))
	}

	// Distributed BFS on the simulated machine.
	rt, err := locale.New(machine.Edison(), *locales, *threads)
	if err != nil {
		fatal(err)
	}
	am := dist.MatFromCSR(rt, a)
	dres, err := algorithms.BFSDist(rt, am, *source)
	if err != nil {
		fatal(err)
	}
	dreach, dmax := summarize(dres)
	fmt.Printf("distributed BFS (%d locales x %d threads): reached %d vertices in %d rounds (eccentricity %d)\n",
		*locales, *threads, dreach, dres.Rounds, dmax)
	fmt.Printf("modeled time: %.3f ms, traffic: %d messages / %d bytes\n",
		rt.S.Elapsed()/1e6, rt.S.Traffic().Messages, rt.S.Traffic().Bytes)

	if reach != dreach {
		fatal(fmt.Errorf("one-locale and distributed BFS disagree: %d vs %d reached", reach, dreach))
	}
	if *verbose {
		for v := 0; v < a.NRows && v < 200; v++ {
			fmt.Printf("vertex %4d: level %3d parent %4d\n", v, res.Level[v], res.Parent[v])
		}
	}
}

func summarize(res *algorithms.BFSResult) (reached int, maxLevel int64) {
	for _, l := range res.Level {
		if l >= 0 {
			reached++
			if l > maxLevel {
				maxLevel = l
			}
		}
	}
	return
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "gbbfs: %v\n", err)
	os.Exit(1)
}
