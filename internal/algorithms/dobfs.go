package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/inspect"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// BFSDirectionOptimizing is the push/pull ("direction-optimizing") BFS of
// Beamer et al., expressed with the library's data structures: small
// frontiers advance top-down with the SpMSpV push step, and once the frontier
// grows past a threshold the traversal switches to the bottom-up pull step —
// every undiscovered vertex scans its in-neighbors (a CSC column) for a
// frontier member. The paper cites exactly this kind of workload (BFS on
// bulk-synchronous frontiers) as the driver for its operations.
//
// alpha controls the switch when positive: pull is used while
// nnz(frontier) > n/alpha. alpha <= 0 means Auto: with an inspector in
// cfg.Insp the direction is decided per round from modeled push/pull work
// (or the strategy's pin / PullThreshold); without one, the conventional
// threshold of 14 applies, as before.
func BFSDirectionOptimizing[T semiring.Number](a *sparse.CSR[T], source int, alpha int) (*BFSResult, error) {
	return BFSDirectionOptimizingCfg(a, source, alpha, core.ShmConfig{})
}

// BFSDirectionOptimizingCfg is BFSDirectionOptimizing with an explicit
// shared-memory config: the push steps run through cfg (forcing the bucket
// engine, as before) so their cost charging and tracing flow to cfg.Sim and
// cfg.Trace, and cfg.Insp drives the per-round direction choice when alpha
// is Auto.
func BFSDirectionOptimizingCfg[T semiring.Number](a *sparse.CSR[T], source int, alpha int, cfg core.ShmConfig) (*BFSResult, error) {
	defer cfg.Trace.Begin("BFSDirectionOptimizing").End()
	if a.NRows != a.NCols {
		return nil, fmt.Errorf("algorithms: DOBFS: adjacency matrix must be square, got %dx%d", a.NRows, a.NCols)
	}
	n := a.NRows
	if source < 0 || source >= n {
		return nil, fmt.Errorf("algorithms: DOBFS: source %d out of range [0,%d)", source, n)
	}
	inspected := alpha <= 0 && cfg.Insp != nil
	if alpha <= 0 && !inspected {
		alpha = 14
	}
	totalEdges := a.NNZ()
	unvisited := n - 1
	at := a.ToCSC() // in-neighbor access for the pull step

	res := newBFSResult(source, n)
	inFrontier := make([]bool, n)
	visited := sparse.NewDense[int64](n)
	frontier := sparse.NewVec[T](n)
	frontier.Ind = []int{source}
	frontier.Val = []T{1}
	inFrontier[source] = true
	visited.Data[source] = 1

	for level := int64(1); frontier.NNZ() > 0; level++ {
		if err := cfg.Canceled(); err != nil {
			return nil, fmt.Errorf("algorithms: DOBFS: %w", err)
		}
		var usePull bool
		var pushEst, pullEst float64 // > 0 when the cost model priced this round
		if !inspected {
			usePull = frontier.NNZ() > n/alpha
		} else {
			s := cfg.Insp.Strategy()
			switch {
			case s.Dir != inspect.DirAuto:
				// Pinned: DecideDir records the forced choice; costs unused.
				usePull = cfg.Insp.DecideDir("DOBFS", 0, 0, "", "") == inspect.DirPull
			case s.PullThreshold > 0:
				// Legacy rule on an explicit threshold, recorded as such.
				usePull = frontier.NNZ() > n/s.PullThreshold
				choice := "push"
				if usePull {
					choice = "pull"
				}
				cfg.Insp.Note("DOBFS", inspect.AxisDir, choice, inspect.ReasonPullThreshold)
			default:
				fEdges := 0
				for _, u := range frontier.Ind {
					cols, _ := a.Row(u)
					fEdges += len(cols)
				}
				pushEst, pullEst = core.EstimateBFSDir(&cfg, n, unvisited, frontier.NNZ(), fEdges, totalEdges)
				usePull = cfg.Insp.DecideDir("DOBFS", pushEst, pullEst,
					core.ReasonFrontierEdges, core.ReasonUnvisitedScan) == inspect.DirPull
			}
			d := cfg.Insp.Last()
			cfg.Trace.Begin("Dispatch",
				trace.T("op", d.Op), trace.T("strategy", d.Choice), trace.T("reason", d.Reason)).End()
		}
		// Calibrate the cost-model rounds against the simulator's actual
		// charge for the round (spawn overheads, bandwidth and all).
		modeled := pullEst > 0 && cfg.Sim != nil
		var roundStart float64
		if modeled {
			roundStart = cfg.Sim.Elapsed()
		}
		observeRound := func() {
			if !modeled {
				return
			}
			choice, est := uint8(inspect.DirPush), pushEst
			if usePull {
				choice, est = uint8(inspect.DirPull), pullEst
			}
			cfg.Insp.Observe(inspect.AxisDir, choice, est, cfg.Sim.Elapsed()-roundStart)
		}
		if usePull {
			// Bottom-up (pull): every undiscovered vertex looks for an
			// in-neighbor in the frontier; first hit becomes the parent.
			next := sparse.NewVec[T](n)
			var checked, scanned int64
			for v := 0; v < n; v++ {
				if visited.Data[v] != 0 {
					continue
				}
				checked++
				rows, _ := at.Col(v)
				for _, u := range rows {
					scanned++
					if inFrontier[u] {
						res.Level[v] = level
						res.Parent[v] = int64(u)
						next.Ind = append(next.Ind, v)
						next.Val = append(next.Val, 1)
						break
					}
				}
			}
			for _, v := range next.Ind {
				visited.Data[v] = 1
			}
			core.ChargeDOBFSPull(&cfg, checked, scanned)
			observeRound()
			// Swap frontier flags.
			for _, v := range frontier.Ind {
				inFrontier[v] = false
			}
			for _, v := range next.Ind {
				inFrontier[v] = true
			}
			frontier = next
		} else {
			// Top-down (push): the paper's masked SpMSpV step fused with the
			// level/parent/visited updates, run on the sort-free bucket engine —
			// direction optimization is already a departure from the paper's
			// Listing, so the push steps take the fastest pipeline rather than
			// the fidelity default. The frontier is rewritten in place, so its
			// flags are cleared before the call and set after.
			pushCfg := cfg
			pushCfg.Engine = core.EngineBucket
			for _, v := range frontier.Ind {
				inFrontier[v] = false
			}
			core.FusedPushStepShm(a, frontier, visited, level, res.Level, res.Parent, pushCfg)
			for _, v := range frontier.Ind {
				inFrontier[v] = true
			}
			observeRound()
		}
		unvisited -= frontier.NNZ()
		if frontier.NNZ() > 0 {
			res.Rounds++
		}
	}
	return res, nil
}

// BetweennessCentrality computes exact betweenness centrality with Brandes'
// algorithm expressed GraphBLAS-style: a forward BFS sweep accumulating
// shortest-path counts (sigma) level by level, then a backward sweep
// accumulating dependencies. sources selects the vertices to run from (all
// vertices give exact BC; a sample gives the usual approximation). The graph
// is treated as unweighted and directed (use a symmetric matrix for
// undirected BC, which then double-counts as is conventional).
func BetweennessCentrality[T semiring.Number](a *sparse.CSR[T], sources []int) ([]float64, error) {
	if a.NRows != a.NCols {
		return nil, fmt.Errorf("algorithms: BC: adjacency matrix must be square")
	}
	n := a.NRows
	bc := make([]float64, n)
	at := a.ToCSC()

	for _, s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("algorithms: BC: source %d out of range [0,%d)", s, n)
		}
		// Forward phase: levels + sigma (number of shortest paths).
		level := make([]int64, n)
		for i := range level {
			level[i] = -1
		}
		sigma := make([]float64, n)
		level[s] = 0
		sigma[s] = 1
		frontier := []int{s}
		var levels [][]int
		for depth := int64(1); len(frontier) > 0; depth++ {
			levels = append(levels, frontier)
			var next []int
			seen := make(map[int]bool)
			for _, u := range frontier {
				cols, _ := a.Row(u)
				for _, v := range cols {
					if level[v] < 0 {
						level[v] = depth
						if !seen[v] {
							seen[v] = true
							next = append(next, v)
						}
					}
					if level[v] == depth {
						sigma[v] += sigma[u]
					}
				}
			}
			sparse.RadixSortInts(next)
			frontier = next
		}
		// Backward phase: dependency accumulation from the deepest level.
		delta := make([]float64, n)
		for li := len(levels) - 1; li >= 1; li-- {
			for _, v := range levels[li] {
				rows, _ := at.Col(v)
				for _, u := range rows {
					if level[u] == level[v]-1 && sigma[v] > 0 {
						delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
					}
				}
			}
		}
		for v := 0; v < n; v++ {
			if v != s && level[v] >= 0 {
				bc[v] += delta[v]
			}
		}
	}
	return bc, nil
}

// RefBetweenness computes exact betweenness with a direct Brandes
// implementation over adjacency lists, for testing.
func RefBetweenness[T semiring.Number](a *sparse.CSR[T]) []float64 {
	n := a.NRows
	bc := make([]float64, n)
	for s := 0; s < n; s++ {
		var stack []int
		pred := make([][]int, n)
		sigma := make([]float64, n)
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		sigma[s] = 1
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			cols, _ := a.Row(v)
			for _, w := range cols {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					pred[w] = append(pred[w], v)
				}
			}
		}
		delta := make([]float64, n)
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range pred[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				bc[w] += delta[w]
			}
		}
	}
	return bc
}
