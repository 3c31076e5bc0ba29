package serve

import (
	"context"
	"time"

	"repro/gb"
)

// The same-graph batcher: concurrent BFS requests arriving within
// Config.BatchWindow of each other coalesce into one MultiSourceBFS run —
// the CombBLAS-2.0 move of serving many traversals as one boolean-semiring
// SpGEMM — and the per-source level rows fan back out to the waiting
// requests. The first arrival opens the batch and arms the window timer;
// the timer's goroutine is the leader that runs the product. Waiters hold
// their admission slots while they wait, so a batch never multiplies the
// concurrency the limiter admitted.

// bfsOut is what each waiter receives when its batch completes.
type bfsOut struct {
	levels []int64
	rounds int
	epoch  uint64
	stale  bool
	batch  int     // how many requests the run coalesced
	ms     float64 // modeled time of the whole batch run
	err    error
}

// bfsWaiter is one coalesced request.
type bfsWaiter struct {
	source int
	ctx    context.Context
	ch     chan bfsOut
}

// bfsBatch is the batch being assembled for one graph.
type bfsBatch struct {
	waiters []bfsWaiter
}

// joinBFS adds a BFS request to the graph's open batch (opening one and
// arming the window timer if none is open) and returns the channel its
// result will arrive on.
func (s *Server) joinBFS(g *graph, ctx context.Context, source int) <-chan bfsOut {
	ch := make(chan bfsOut, 1)
	g.batchMu.Lock()
	if g.batch == nil {
		g.batch = &bfsBatch{}
		time.AfterFunc(s.cfg.BatchWindow, func() { s.runBatch(g) })
	}
	g.batch.waiters = append(g.batch.waiters, bfsWaiter{source: source, ctx: ctx, ch: ch})
	g.batchMu.Unlock()
	return ch
}

// runBatch closes the open batch and runs it: one derived query context, one
// MultiSourceBFS over the pinned epoch, one level row per waiter. The run is
// canceled only when every waiter's request context is done — as long as one
// client is still waiting, the product is worth finishing.
func (s *Server) runBatch(g *graph) {
	g.batchMu.Lock()
	b := g.batch
	g.batch = nil
	g.batchMu.Unlock()
	if b == nil || len(b.waiters) == 0 {
		return
	}

	allGone := func() error {
		var err error
		for _, w := range b.waiters {
			if e := w.ctx.Err(); e == nil {
				return nil
			} else if err == nil {
				err = e
			}
		}
		return err
	}
	g.mu.Lock()
	qc := g.base.WithCancel(allGone)
	if s.cfg.DefaultBudgetNS > 0 {
		qc = qc.WithModeledDeadline(s.cfg.DefaultBudgetNS)
	}
	sm, epoch := g.stream.Matrix()
	m := sm.WithContext(qc)
	stale := g.stream.Stale()
	g.mu.Unlock()

	sources := make([]int, len(b.waiters))
	for i, w := range b.waiters {
		sources[i] = w.source
	}
	t0 := qc.Elapsed()
	levels, rounds, err := gb.MultiSourceBFS(m, sources)
	ms := (qc.Elapsed() - t0) * 1e3

	g.mu.Lock()
	g.base.AbsorbCalibration(qc)
	g.mu.Unlock()

	s.met.noteBatch(len(b.waiters))
	for i, w := range b.waiters {
		out := bfsOut{rounds: rounds, epoch: epoch, stale: stale, batch: len(b.waiters), ms: ms, err: err}
		if err == nil {
			out.levels = levels[i]
		}
		w.ch <- out
	}
}
