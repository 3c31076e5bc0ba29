// Package algorithms implements complete graph algorithms on top of the
// GraphBLAS operations — the paper's stated purpose ("our operations are
// chosen such that they can be composed to implement an efficient
// breadth-first search algorithm, which is often the 'hello world' example of
// GraphBLAS"), plus the further classics (SSSP, connected components,
// PageRank, triangle counting, k-truss, multi-source BFS, direction-optimizing
// BFS) that exercise the general semiring machinery. Each is written once, on
// the 2-D block-distributed matrix, and runs from one locale upward; ref.go
// holds the sequential references the tests check them against. Betweenness
// centrality still runs on a gathered sparse.CSR.
package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// BFSResult holds per-vertex BFS output: Level[v] is the hop distance from
// the source (-1 if unreachable), Parent[v] the BFS-tree parent (-1 for the
// source and unreachable vertices).
type BFSResult struct {
	Source int
	Level  []int64
	Parent []int64
	Rounds int
}

// newBFSResult returns the result of a BFS from source over n vertices
// before its first round: only the source reached, at level 0.
func newBFSResult(source, n int) *BFSResult {
	res := &BFSResult{Source: source, Level: make([]int64, n), Parent: make([]int64, n)}
	for i := range res.Level {
		res.Level[i] = -1
		res.Parent[i] = -1
	}
	res.Level[source] = 0
	return res
}

// BFSDist runs breadth-first search over a 2-D block-distributed adjacency
// matrix, composing the paper's distributed operations: SpMSpVDist produces
// the tentative next frontier with parents, EWiseMultSD against the visited
// flags drops already-discovered vertices, and Assign2 installs the new
// frontier.
//
// Because the SpMSpV rounds charge fine-grained traffic (no collective
// reports a crash mid-round), a permanent locale loss is detected at the
// round boundary — the bulk-synchronous failure-at-barrier model. Under a
// fault plan the frontier, visited flags and result arrays are snapshotted
// every checkpointInterval rounds; detection degrades the runtime onto the
// survivors, rolls back to the last checkpoint and replays, reproducing the
// fault-free result bit for bit.
func BFSDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], source int) (*BFSResult, error) {
	return bfsDist(rt, a, source, bfsPlain, 0)
}

// BFSDistMasked is BFSDist with the mask fused into the multiplication
// (SpMSpVDistMasked) instead of filtering after it — the distributed-mask
// form the paper names as future work. Already-visited vertices never cross
// the network during the scatter, so later rounds (large visited sets) send
// far fewer messages.
func BFSDistMasked[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], source int) (*BFSResult, error) {
	return bfsDist(rt, a, source, bfsMasked, 0)
}

// BFSDirectionOptimizing is the push/pull ("direction-optimizing") BFS of
// Beamer et al. on the 2-D distribution: small frontiers advance top-down
// with BFSDistMasked's rounds, and large ones bottom-up, every unvisited
// vertex scanning its in-neighbours for a frontier member
// (core.BFSPullRound). Its rounds recover, checkpoint and cancel like
// BFSDist's.
//
// alpha > 0 pulls while nnz(frontier) > n/alpha. alpha <= 0 means Auto: with
// an inspector on rt each round's direction is its strategy's pin, its
// PullThreshold rule, or the cheaper side under core.EstimateBFSDir, recorded
// under the op name DOBFS; without one, alpha = 14 applies.
func BFSDirectionOptimizing[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], source, alpha int) (*BFSResult, error) {
	return bfsDist(rt, a, source, bfsDirOpt, alpha)
}

// bfsMode selects bfsDist's rounds.
type bfsMode int

const (
	bfsPlain  bfsMode = iota // multiply, then filter the visited
	bfsMasked                // the visited masked out before the scatter
	bfsDirOpt                // bfsMasked's rounds or pull rounds, per round
)

// bfsDist is the one body of BFSDist, BFSDistMasked and
// BFSDirectionOptimizing. A push round multiplies, dropping visited vertices
// after the multiply (bfsPlain) or before the scatter (bfsMasked, bfsDirOpt);
// on a fused runtime every push round is one region (core.FusedBFSRound),
// which masks before the scatter. A bfsDirOpt round may pull instead
// (core.BFSPullRound), in either mode.
func bfsDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], source int, mode bfsMode, alpha int) (*BFSResult, error) {
	name := [...]string{"BFSDist", "BFSDistMasked", "BFSDirectionOptimizing"}[mode]
	defer rt.Span(name).End()
	if a.NRows != a.NCols {
		return nil, fmt.Errorf("algorithms: %s: adjacency matrix must be square, got %dx%d", name, a.NRows, a.NCols)
	}
	n := a.NRows
	if source < 0 || source >= n {
		return nil, fmt.Errorf("algorithms: %s: source %d out of range [0,%d)", name, source, n)
	}
	res := newBFSResult(source, n)
	// visited[v] = 1 once v is discovered: the complemented mask of every
	// variant's multiply or filter.
	visited := dist.NewDenseVec[int64](rt, n)
	frontier := dist.NewSpVec[T](rt, n)
	src := frontier.Owner(source)
	frontier.Loc[src].Ind = []int{source}
	frontier.Loc[src].Val = []T{1}
	visited.Set(source, 1)
	unvisited := n - 1
	// cols[l] is block colsOf[l] in CSC form, for the pull rounds: built at
	// the first one, and again for every block a recovery replaces.
	cols, colsOf := make([]*sparse.CSC[T], rt.G.P), make([]*sparse.CSR[T], rt.G.P)

	var ckptFrontier *sparse.Vec[T]
	var ckptVisited, ckptLevel, ckptParent []int64
	var ckptUnvisited int
	ck := checkpoint{
		bytes: int64(n) * 8,
		save: func() {
			ckptFrontier = frontier.ToVec()
			ckptVisited = visited.ToDense().Data
			ckptLevel = append(ckptLevel[:0], res.Level...)
			ckptParent = append(ckptParent[:0], res.Parent...)
			ckptUnvisited = unvisited
		},
		load: func() {
			frontier = dist.SpVecFromVec(rt, ckptFrontier)
			visited.Load(ckptVisited)
			copy(res.Level, ckptLevel)
			copy(res.Parent, ckptParent)
			unvisited = ckptUnvisited
		},
	}
	lossReported := false
	_, err := runRounds(rt, name, &a, ck, func(i int) (bool, error) {
		// No collective reports a crash mid-round, so the loss is polled for
		// at the round boundary; the detector hears every poll.
		if rt.Fault != nil {
			if d := rt.DownLocale(); d >= 0 && !lossReported {
				lossReported = true
				return false, &fault.LocaleLostError{Locale: d}
			}
		}
		res.Rounds = i // the last, empty round does not count
		level := int64(i) + 1
		dir, est := inspect.DirPush, 0.0
		if mode == bfsDirOpt {
			dir, est = bfsDirection(rt, a, frontier, unvisited, alpha)
		}
		start := rt.S.Elapsed()
		var found int
		var err error
		switch {
		case dir == inspect.DirPull:
			for l, blk := range a.Blocks {
				if colsOf[l] != blk {
					cols[l], colsOf[l] = blk.ToCSC(), blk
				}
			}
			found, err = core.BFSPullRound(rt, a, cols, frontier, visited, level, res.Level, res.Parent)
		case rt.Fusion:
			// One region per round (RecipeSpMSpVFrontier): the masked multiply,
			// level/parent/visited updates and frontier install between one
			// spawn and one barrier.
			found, _, err = core.FusedBFSRound(rt, a, frontier, visited, level, res.Level, res.Parent)
		default:
			found, err = bfsPushEager(rt, a, frontier, visited, level, res, mode != bfsPlain)
		}
		if err != nil {
			return false, err
		}
		if est > 0 {
			rt.Insp.Observe(inspect.AxisDir, uint8(dir), est, rt.S.Elapsed()-start)
		}
		unvisited -= found
		return found == 0, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// bfsPushEager is one eager push round: the multiply (masked, or filtered
// against visited after it), the level/parent/visited updates, and the next
// frontier installed with the paper's Assign. It returns the size of the new
// frontier and mutates nothing when that is zero.
func bfsPushEager[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], frontier *dist.SpVec[T], visited *dist.DenseVec[int64], level int64, res *BFSResult, masked bool) (int, error) {
	var fresh *dist.SpVec[int64]
	var err error
	if masked {
		fresh, _, err = core.SpMSpVDistMasked(rt, a, frontier, visited)
	} else {
		var y *dist.SpVec[int64]
		if y, _, err = core.SpMSpVDistAuto(rt, a, frontier); err == nil {
			fresh, err = core.EWiseMultSD(rt, y, visited, func(_, v int64) bool { return v == 0 })
		}
	}
	if err != nil {
		return 0, err
	}
	found := fresh.NNZ()
	if found == 0 {
		return 0, nil
	}
	next := dist.NewSpVec[T](rt, frontier.N)
	for l, lv := range fresh.Loc {
		for k, v := range lv.Ind {
			res.Level[v] = level
			res.Parent[v] = lv.Val[k]
			visited.Set(v, 1)
			next.Loc[l].Ind = append(next.Loc[l].Ind, v)
			next.Loc[l].Val = append(next.Loc[l].Val, 1)
		}
	}
	return found, core.Assign2(rt, frontier, next)
}

// bfsDirection picks the direction of a direction-optimizing BFS round:
// alpha's rule when alpha > 0 (alpha = 14 without an inspector); otherwise
// the inspector's pin, its PullThreshold rule, or the cheaper side under
// core.EstimateBFSDir, in that order. It returns the chosen side's estimate
// for the round's Observe, 0 when the round was not priced.
func bfsDirection[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], frontier *dist.SpVec[T], unvisited, alpha int) (inspect.Dir, float64) {
	n, nnz := a.NRows, frontier.NNZ()
	in := rt.Insp
	if alpha <= 0 && in == nil {
		alpha = 14
	}
	if alpha > 0 {
		if nnz > n/alpha {
			return inspect.DirPull, 0
		}
		return inspect.DirPush, 0
	}
	defer func() {
		d := in.Last()
		rt.Span("Dispatch", trace.T("op", d.Op), trace.T("strategy", d.Choice), trace.T("reason", d.Reason)).End()
	}()
	s := in.Strategy()
	switch {
	case s.Dir != inspect.DirAuto:
		return in.DecideDir("DOBFS", 0, 0, "", ""), 0
	case s.PullThreshold > 0:
		dir := inspect.DirPush
		if nnz > n/s.PullThreshold {
			dir = inspect.DirPull
		}
		in.Note("DOBFS", inspect.AxisDir, dir.String(), inspect.ReasonPullThreshold)
		return dir, 0
	}
	push, pull := core.EstimateBFSDir(rt, n, unvisited, nnz, frontierEdges(rt.G, a, frontier))
	dir := in.DecideDir("DOBFS", push, pull, core.ReasonFrontierEdges, core.ReasonUnvisitedScan)
	if pull <= 0 {
		return dir, 0
	}
	if dir == inspect.DirPull {
		return dir, pull
	}
	return dir, push
}

// frontierEdges counts the edges out of the frontier: every frontier vertex
// u in row band r has its row split across the blocks of grid row r.
func frontierEdges[T semiring.Number](g *locale.Grid, a *dist.Mat[T], frontier *dist.SpVec[T]) int {
	edges := 0
	for l, lv := range frontier.Loc {
		r, _ := g.Coords(l)
		for _, u := range lv.Ind {
			i := u - a.RowBands[r]
			for c := 0; c < g.Pc; c++ {
				rp := a.Blocks[g.ID(r, c)].RowPtr
				edges += rp[i+1] - rp[i]
			}
		}
	}
	return edges
}
