package gb

import (
	"context"
	"sync"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/sparse"
)

// TestConcurrentQueriesShareOneArena is the gbserve situation in miniature:
// queries of different element types — PageRank (float64 stages), connected
// components (int64 stages) and multi-source BFS (int64 SUMMA buffers) — run
// at once on contexts cloned from one base, so on one scratch arena and one
// resident matrix. Each answer must equal its sequential reference, every
// round, and when all are done no loan is outstanding. Run under -race it
// checks the arena's locking and that a lent buffer is in one hand at a time.
func TestConcurrentQueriesShareOneArena(t *testing.T) {
	const n, rounds = 300, 6
	a := sparse.ErdosRenyi[float64](n, 5, 811)
	sources := []int{0, 17, 150, 299}

	// Sequential references, each on a context of its own.
	ref, err := New(Locales(4), Threads(4))
	if err != nil {
		t.Fatal(err)
	}
	wantPR, _, err := PageRank(MatrixFromCSR(ref, a), 0.85, 1e-8, 40)
	if err != nil {
		t.Fatal(err)
	}
	wantCC, wantComps := algorithms.RefCC(a)
	wantLevels := make([][]int64, len(sources))
	for k, s := range sources {
		wantLevels[k] = algorithms.RefBFS(a, s)
	}

	base, err := New(Locales(4), Threads(4))
	if err != nil {
		t.Fatal(err)
	}
	m := MatrixFromCSR(base, a)
	queries := map[string]func(q *Matrix[float64]){
		"pagerank": func(q *Matrix[float64]) {
			got, _, err := PageRank(q, 0.85, 1e-8, 40)
			if err != nil {
				t.Errorf("PageRank: %v", err)
				return
			}
			for i := range wantPR {
				if got[i] != wantPR[i] {
					t.Errorf("PageRank[%d] = %v beside other queries, %v alone", i, got[i], wantPR[i])
					return
				}
			}
		},
		"cc": func(q *Matrix[float64]) {
			got, comps, err := ConnectedComponents(q)
			if err != nil || comps != wantComps {
				t.Errorf("ConnectedComponents: %d components (want %d), err %v", comps, wantComps, err)
				return
			}
			for i := range wantCC {
				if got[i] != wantCC[i] {
					t.Errorf("label[%d] = %d, want %d", i, got[i], wantCC[i])
					return
				}
			}
		},
		"msbfs": func(q *Matrix[float64]) {
			got, _, err := MultiSourceBFS(q, sources)
			if err != nil {
				t.Errorf("MultiSourceBFS: %v", err)
				return
			}
			for k := range sources {
				for v := range wantLevels[k] {
					if got[k][v] != wantLevels[k][v] {
						t.Errorf("source %d: level[%d] = %d, want %d", sources[k], v, got[k][v], wantLevels[k][v])
						return
					}
				}
			}
		},
	}
	var wg sync.WaitGroup
	var derive sync.Mutex // gbserve derives under the graph's lock too
	for _, run := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds && !t.Failed(); r++ {
				// What gbserve derives per query: a clone with its own
				// modeled clock, sharing the base's arena and blocks.
				derive.Lock()
				q := m.WithContext(base.WithCancelContext(context.Background()))
				derive.Unlock()
				run(q)
			}
		}()
	}
	wg.Wait()
	if got := base.rt.Scratch.Outstanding(); got != 0 {
		t.Errorf("%d arena loans outstanding after every query returned", got)
	}
}
