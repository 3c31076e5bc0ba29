package serve

import (
	"context"
	"fmt"
	"time"

	"repro/gb"
)

// The same-graph batcher: BFS requests coalesce into one MultiSourceBFS run —
// the CombBLAS-2.0 move of serving many traversals as one boolean-semiring
// SpGEMM — and the per-source level rows fan back out to the waiting
// requests. It is group commit, not a timer: a request that finds no batch
// running on its graph runs what has arrived at once, on its own goroutine;
// one that finds a batch running rides the batch that starts the moment the
// running one ends. So a request waits for at most one run that was already
// in progress, never for a clock, and batches form exactly when requests
// would otherwise have queued behind each other. One batch per graph is in
// flight at a time (other ops and other graphs run beside it), and waiters
// hold their admission slots while they wait, so a batch never holds more
// requests than the limiter admitted.

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
	source   int
	ctx      context.Context
	budgetNS float64 // the request's modeled budget, 0 = none
	joined   time.Time
	ch       chan bfsOut
}

// joinBFS queues a BFS request on its graph and returns the channel its
// result will arrive on. On an idle graph the caller leads: the batch runs
// before joinBFS returns, and whatever queued behind it is handed to a
// goroutine so the caller's own reply is not held behind other requests'
// traversal.
func (s *Server) joinBFS(g *graph, ctx context.Context, source int, budgetNS float64) <-chan bfsOut {
	ch := make(chan bfsOut, 1) // buffered: the run never blocks on a waiter that left
	g.batchMu.Lock()
	g.pending = append(g.pending, bfsWaiter{source: source, ctx: ctx, budgetNS: budgetNS, joined: time.Now(), ch: ch})
	lead := !g.running
	g.running = true
	g.batchMu.Unlock()
	if lead && s.runPending(g) {
		s.inflight.Add(1) // Drain waits for the hand-off too
		go func() {
			defer s.inflight.Done()
			for s.runPending(g) {
			}
		}()
	}
	return ch
}

// runPending runs one batch of everything pending on g and reports whether
// more arrived meanwhile; when nothing did, the graph is idle again.
func (s *Server) runPending(g *graph) (more bool) {
	g.batchMu.Lock()
	batch := g.pending
	g.pending = nil
	g.batchMu.Unlock()

	s.runBatch(g, batch)

	g.batchMu.Lock()
	defer g.batchMu.Unlock()
	g.running = len(g.pending) > 0
	return g.running
}

// runBatch serves the waiters still there: one derived query context, one
// MultiSourceBFS over the pinned epoch, one level row per waiter. The run is
// canceled only when every waiter's request context is done — as long as one
// client is still waiting, the product is worth finishing. Its modeled
// deadline is the largest budget in the batch (none if any member has none);
// a member whose own budget the run overran gets the typed deadline error.
func (s *Server) runBatch(g *graph, batch []bfsWaiter) {
	start := time.Now()
	waiters, waited := batch[:0], 0.0
	for _, w := range batch {
		if w.ctx.Err() == nil {
			waiters = append(waiters, w)
			waited += start.Sub(w.joined).Seconds()
		}
	}
	if len(waiters) == 0 {
		return
	}

	allGone := func() error {
		var err error
		for _, w := range waiters {
			if e := w.ctx.Err(); e == nil {
				return nil
			} else if err == nil {
				err = e
			}
		}
		return err
	}
	sources := make([]int, len(waiters))
	budgetNS, unbounded := 0.0, false
	for i, w := range waiters {
		sources[i] = w.source
		budgetNS = max(budgetNS, w.budgetNS)
		unbounded = unbounded || w.budgetNS == 0
	}
	g.mu.Lock()
	qc := g.base.WithCancel(allGone)
	if !unbounded {
		qc = qc.WithModeledDeadline(budgetNS)
	}
	sm, epoch := g.stream.Matrix()
	m := sm.WithContext(qc)
	stale := g.stream.Stale()
	g.mu.Unlock()

	t0 := qc.Elapsed()
	levels, rounds, err := gb.MultiSourceBFS(m, sources)
	ms := (qc.Elapsed() - t0) * 1e3

	g.mu.Lock()
	g.base.AbsorbCalibration(qc)
	g.mu.Unlock()

	s.met.noteBatch(len(waiters), waited)
	for i, w := range waiters {
		out := bfsOut{rounds: rounds, epoch: epoch, stale: stale, batch: len(waiters), ms: ms, err: err}
		switch {
		case err != nil:
		case w.budgetNS > 0 && ms*1e6 > w.budgetNS:
			out.err = fmt.Errorf("serve: bfs batch of %d took %g modeled ms, over this request's budget of %g ms: %w",
				len(waiters), ms, w.budgetNS/1e6, gb.ErrDeadlineExceeded)
		default:
			out.levels = levels[i]
		}
		w.ch <- out
	}
}
