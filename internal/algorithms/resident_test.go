package algorithms

// Tests of the resident-block contract (DESIGN.md §15): the structural
// operand of PageRank/CC/MSBFS is taken block by block from the resident
// matrix — sharing its index arrays — instead of being rebuilt through a
// global COO, and concurrent queries read one pinned snapshot in place while
// a writer commits new epochs.

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/locale"
	"repro/internal/sparse"
)

// sameDistMat fails unless got and want have the same bands and, block for
// block, the same contents.
func sameDistMat[T int64 | float64](t *testing.T, label string, got, want *dist.Mat[T]) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if got.NRows != want.NRows || got.NCols != want.NCols || len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: %dx%d in %d blocks, want %dx%d in %d", label,
			got.NRows, got.NCols, len(got.Blocks), want.NRows, want.NCols, len(want.Blocks))
	}
	for i := range want.RowBands {
		if got.RowBands[i] != want.RowBands[i] {
			t.Fatalf("%s: row bands %v, want %v", label, got.RowBands, want.RowBands)
		}
	}
	for i := range want.ColBands {
		if got.ColBands[i] != want.ColBands[i] {
			t.Fatalf("%s: column bands %v, want %v", label, got.ColBands, want.ColBands)
		}
	}
	for l := range want.Blocks {
		if !got.Blocks[l].Equal(want.Blocks[l]) {
			t.Fatalf("%s: block %d differs from the global rebuild", label, l)
		}
	}
}

// TestDistStructuralMatchesGlobalRebuild pins the block-wise structural
// operand to what the deleted COO → ToCSR → MatFromCSR round trip produced,
// on one-locale, square, rectangular and prime (1×p) grids, for both element
// types the algorithms instantiate; then again after a locale loss, where
// Recover swaps block pointers under the shared index arrays.
func TestDistStructuralMatchesGlobalRebuild(t *testing.T) {
	a0 := sparse.ErdosRenyi[float64](97, 5, 511) // 97: no grid side divides it
	for _, p := range []int{1, 4, 6, 7, 13} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, a0)
		before := dist.MatFromCSR(rt, a0)
		sameDistMat(t, "int64 pattern", distStructural[int64](rt, a), dist.MatFromCSR(rt, structural(a0, sparse.Ones[int64](nil, a0.NNZ()))))
		sameDistMat(t, "float64 pattern", distStructural[float64](rt, a), dist.MatFromCSR(rt, structural(a0, sparse.Ones[float64](nil, a0.NNZ()))))
		sameDistMat(t, "source after taking its pattern", a, before)
		ones := sparse.Ones[int64](rt.Scratch, 1)
		for l, blk := range distStructural[int64](rt, a).Blocks {
			if blk.NNZ() > 0 && &blk.ColIdx[0] != &a.Blocks[l].ColIdx[0] {
				t.Fatalf("p=%d: structural block %d copied its index array", p, l)
			}
			if blk.NNZ() > 0 && (&blk.Val[0] != &ones[0] || cap(blk.Val) != blk.NNZ()) {
				t.Fatalf("p=%d: structural block %d does not alias the arena's ones slice at its exact length", p, l)
			}
		}
	}

	for _, p := range []int{4, 6, 7, 13} {
		for _, pol := range []fault.RecoveryPolicy{fault.PolicyRedistribute, fault.PolicyFailover, fault.PolicyBestEffort} {
			lost := p / 2
			rt := newRT(t, p).WithFault(fault.Plan{Seed: 5, CrashLocale: lost, CrashStep: 0})
			rt.Recovery = pol
			a := dist.MatFromCSR(rt, a0)
			dist.ReplicateMat(rt, a)
			before := dist.MatFromCSR(rt, a0)
			pm := distStructural[int64](rt, a)
			if !pm.Replicated() {
				t.Fatalf("p=%d: the pattern of a replicated matrix lost its replicas", p)
			}
			rec, _, err := core.Recover(rt, pm, lost) // degrades the runtime, then repairs pm
			if err != nil {
				t.Fatalf("p=%d %v: %v", p, pol, err)
			}
			want := dist.MatFromCSR(rt, structural(a0, sparse.Ones[int64](nil, a0.NNZ())))
			if pol == fault.PolicyBestEffort {
				want.Blocks[lost] = sparse.NewCSR[int64](want.Blocks[lost].NRows, want.Blocks[lost].NCols)
			}
			sameDistMat(t, "recovered pattern", rec, want)
			// Recovery replaced block pointers of the derived matrix only:
			// the resident source, index arrays included, is as it was.
			sameDistMat(t, "source after recovery of its pattern", a, before)
		}
	}
}

// TestStructuralOperandsAreNeverWritten runs every algorithm that takes a
// pattern operand on one runtime and then reads the arena's shared ones
// slices back: all of them alias it (DESIGN.md §15), so a single in-place
// write to an operand's Val — k-truss re-arming its pattern, MSBFS compacting
// a frontier — would show here as a value other than 1.
func TestStructuralOperandsAreNeverWritten(t *testing.T) {
	g := symGraph(120, 4, 733)
	for _, p := range []int{4, 6} {
		rt := newRT(t, p)
		a := dist.MatFromCSR(rt, g)
		if _, _, err := PageRankDist(rt, a, 0.85, 1e-9, 30); err != nil {
			t.Fatal(err)
		}
		if _, _, err := CCDist(rt, a); err != nil {
			t.Fatal(err)
		}
		if _, err := TriangleCountDist(rt, a); err != nil {
			t.Fatal(err)
		}
		if _, rounds, err := KTrussDist(rt, a, 4); err != nil || rounds < 2 {
			t.Fatalf("KTrussDist: %d rounds (want a prune, so the pattern is re-armed), err %v", rounds, err)
		}
		if _, _, err := MSBFSDist(rt, a, []int{0, 57, 119}); err != nil {
			t.Fatal(err)
		}
		most := 0 // what the operands asked the arena for: the largest block
		for _, blk := range a.Blocks {
			most = max(most, blk.NNZ())
		}
		held := sparse.Ones[int64](rt.Scratch, most)
		if blk := distStructural[int64](rt, a).Blocks[0]; &blk.Val[0] != &held[0] {
			t.Fatalf("p=%d: the slice read back is not the one the operands alias", p)
		}
		for i, v := range held {
			if v != 1 {
				t.Fatalf("p=%d: shared int64 ones[%d] = %d", p, i, v)
			}
		}
		for i, v := range sparse.Ones[float64](rt.Scratch, most) {
			if v != 1 {
				t.Fatalf("p=%d: shared float64 ones[%d] = %g", p, i, v)
			}
		}
		if n := rt.Scratch.Outstanding(); n != 0 {
			t.Fatalf("p=%d: %d arena loans outstanding", p, n)
		}
	}
}

// queryRuntime derives a query's private view of base the way gb derives a
// per-query context: its own simulator, the shared grid, worker pool and
// scratch arena.
func queryRuntime(base *locale.Runtime) *locale.Runtime {
	rt := *base
	rt.S = base.S.Clone()
	return &rt
}

// symmetricBatch is the writer's deterministic mutation batch toward epoch
// k: undirected edge inserts and deletes, so every epoch stays a symmetric
// adjacency matrix.
func symmetricBatch(em *dist.EpochMat[float64], n, k int) error {
	s := uint64(k)*0x9E3779B97F4A7C15 + 12345
	next := func(m int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(m))
	}
	for e := 0; e < 30; e++ {
		i, j := next(n), next(n)
		if i == j {
			continue
		}
		var err error
		if next(10) < 3 {
			if err = em.Delete(i, j); err == nil {
				err = em.Delete(j, i)
			}
		} else {
			if err = em.Update(i, j, 1); err == nil {
				err = em.Update(j, i, 1)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TestConcurrentQueriesReadResidentBlocksInPlace runs MSBFS, PageRank and CC
// concurrently on pinned snapshots — whose blocks the SUMMA panels and the
// structural operands alias — while a writer commits new epochs, and checks
// every answer against the sequential reference at the epoch it pinned. Run
// under -race it is the proof that nothing writes a resident block: the 2×2
// grid reads whole blocks, the 2×3 grid reads views and column cuts.
func TestConcurrentQueriesReadResidentBlocksInPlace(t *testing.T) {
	const n, epochs, readersPerOp = 96, 5, 2
	sources := []int{0, 31, 64, 95}
	for _, p := range []int{4, 6} {
		base := newRT(t, p)
		g0 := symGraph(n, 3, 601)
		csr0 := structural(g0, sparse.Ones[float64](nil, g0.NNZ()))
		em := dist.NewEpochMat(dist.MatFromCSR(base, csr0))

		done := make(chan struct{})
		var answered atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the writer
			defer wg.Done()
			defer close(done)
			wrt := queryRuntime(base)
			for k := 1; k <= epochs; k++ {
				// Pace the epochs by the readers, so every one of them is
				// committed while queries are in flight.
				for answered.Load() < int64(3*k) && !t.Failed() {
					runtime.Gosched()
				}
				if err := symmetricBatch(em, n, k); err != nil {
					t.Errorf("p=%d: batch %d: %v", p, k, err)
					return
				}
				if ep, err := em.Flush(wrt); err != nil || ep != uint64(k) {
					t.Errorf("p=%d: flush %d committed epoch %d: %v", p, k, ep, err)
					return
				}
			}
		}()

		// query runs one algorithm on the pinned snapshot and checks it
		// against the sequential reference on the gathered epoch.
		type query = func(rt *locale.Runtime, pin *dist.Mat[float64], ref *sparse.CSR[float64]) bool
		queries := map[string]query{
			"msbfs": func(rt *locale.Runtime, pin *dist.Mat[float64], ref *sparse.CSR[float64]) bool {
				levels, _, err := MSBFSDist(rt, pin, sources)
				if err != nil {
					t.Errorf("p=%d: MSBFSDist: %v", p, err)
					return false
				}
				for si, s := range sources {
					want := RefBFS(ref, s)
					for v := range want {
						if levels[si][v] != want[v] {
							t.Errorf("p=%d: msbfs source %d: level[%d] = %d, want %d", p, s, v, levels[si][v], want[v])
							return false
						}
					}
				}
				return true
			},
			"pagerank": func(rt *locale.Runtime, pin *dist.Mat[float64], ref *sparse.CSR[float64]) bool {
				got, _, err := PageRankDist(rt, pin, 0.85, 1e-10, 100)
				if err != nil {
					t.Errorf("p=%d: PageRankDist: %v", p, err)
					return false
				}
				want := RefPageRank(ref, 0.85, 1e-10, 100)
				for v := range want {
					if math.Abs(got[v]-want[v]) > 1e-9 {
						t.Errorf("p=%d: rank[%d] = %v, want %v", p, v, got[v], want[v])
						return false
					}
				}
				return true
			},
			"cc": func(rt *locale.Runtime, pin *dist.Mat[float64], ref *sparse.CSR[float64]) bool {
				labels, count, err := CCDist(rt, pin)
				if err != nil {
					t.Errorf("p=%d: CCDist: %v", p, err)
					return false
				}
				wantLabels, wantCount := RefCC(ref)
				if count != wantCount {
					t.Errorf("p=%d: %d components, want %d", p, count, wantCount)
					return false
				}
				for v := range wantLabels {
					if labels[v] != wantLabels[v] {
						t.Errorf("p=%d: label[%d] = %d, want %d", p, v, labels[v], wantLabels[v])
						return false
					}
				}
				return true
			},
		}
		for name, query := range queries {
			for r := 0; r < readersPerOp; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for writing := true; writing; {
						select {
						case <-done:
							writing = false // one last pass, on the final epoch
						default:
						}
						pin, epoch := em.Snapshot()
						ref, err := pin.ToCSR()
						if err != nil {
							t.Errorf("p=%d %s: gathering epoch %d: %v", p, name, epoch, err)
							return
						}
						if !query(queryRuntime(base), pin, ref) {
							t.Errorf("p=%d %s: wrong answer at epoch %d", p, name, epoch)
							return
						}
						answered.Add(1)
					}
				}()
			}
		}
		wg.Wait()
		if got := em.Epoch(); got != epochs && !t.Failed() {
			t.Fatalf("p=%d: writer stopped at epoch %d, want %d", p, got, epochs)
		}
	}
}
