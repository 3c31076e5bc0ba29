// Package algorithms implements complete graph algorithms on top of the
// GraphBLAS operations — the paper's stated purpose ("our operations are
// chosen such that they can be composed to implement an efficient
// breadth-first search algorithm, which is often the 'hello world' example of
// GraphBLAS"), plus the further classics (SSSP, connected components,
// PageRank, triangle counting, k-truss, multi-source BFS) that exercise the
// general semiring machinery. Each is written once, on the 2-D
// block-distributed matrix, and runs from one locale upward; ref.go holds the
// sequential references the tests check them against. Direction-optimizing
// BFS and betweenness centrality still run on a gathered sparse.CSR.
package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sparse"
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
	return bfsDist(rt, a, source, false)
}

// BFSDistMasked is BFSDist with the mask fused into the multiplication
// (SpMSpVDistMasked) instead of filtering after it — the distributed-mask
// form the paper names as future work. Already-visited vertices never cross
// the network during the scatter, so later rounds (large visited sets) send
// far fewer messages.
func BFSDistMasked[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], source int) (*BFSResult, error) {
	return bfsDist(rt, a, source, true)
}

// bfsDist is the one body of BFSDist and BFSDistMasked: masked selects the
// multiply that drops visited vertices before the scatter over the one that
// filters them after it. On a fused runtime both variants run each round as
// one region (core.FusedBFSRound), which masks before the scatter too.
func bfsDist[T semiring.Number](rt *locale.Runtime, a *dist.Mat[T], source int, masked bool) (*BFSResult, error) {
	name := "BFSDist"
	if masked {
		name = "BFSDistMasked"
	}
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

	var ckptFrontier *sparse.Vec[T]
	var ckptVisited, ckptLevel, ckptParent []int64
	ck := checkpoint{
		bytes: int64(n) * 8,
		save: func() {
			ckptFrontier = frontier.ToVec()
			ckptVisited = visited.ToDense().Data
			ckptLevel = append(ckptLevel[:0], res.Level...)
			ckptParent = append(ckptParent[:0], res.Parent...)
		},
		load: func() {
			frontier = dist.SpVecFromVec(rt, ckptFrontier)
			visited.Load(ckptVisited)
			copy(res.Level, ckptLevel)
			copy(res.Parent, ckptParent)
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
		if rt.Fusion {
			// One region per round (RecipeSpMSpVFrontier): the masked multiply,
			// level/parent/visited updates and frontier install between one
			// spawn and one barrier.
			nn, _ := core.FusedBFSRound(rt, a, frontier, visited, level, res.Level, res.Parent)
			return nn == 0, nil
		}
		var fresh *dist.SpVec[int64]
		if masked {
			fresh, _ = core.SpMSpVDistMasked(rt, a, frontier, visited)
		} else {
			y, _ := core.SpMSpVDistAuto(rt, a, frontier)
			var err error
			if fresh, err = core.EWiseMultSD(rt, y, visited, func(_, v int64) bool { return v == 0 }); err != nil {
				return false, err
			}
		}
		if fresh.NNZ() == 0 {
			return true, nil
		}
		next := dist.NewSpVec[T](rt, n)
		for l, lv := range fresh.Loc {
			for k, v := range lv.Ind {
				res.Level[v] = level
				res.Parent[v] = lv.Val[k]
				visited.Set(v, 1)
				next.Loc[l].Ind = append(next.Loc[l].Ind, v)
				next.Loc[l].Val = append(next.Loc[l].Val, 1)
			}
		}
		// Install the next frontier with the paper's Assign.
		return false, core.Assign2(rt, frontier, next)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
