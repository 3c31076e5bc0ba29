package serve

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/sparse"
)

// The service as a model: a seeded schedule of posters and a writer runs
// against an in-process Server, and every reply is held to a sequential
// oracle — algorithms.Ref* on the matrix the writer committed at the epoch
// the reply names. The writer can hold any query across any number of
// flushes, in one of two places:
//
//   - before it pins an epoch: the writer holds the graph mutex (as holdRun
//     does) and commits the flushes itself, so the query derives from the
//     newest epoch once it is let go;
//   - after it pinned one: the writer holds the SSSP state store, which an
//     sssp miss reads between deriving its snapshot and running on it, and
//     commits the flushes beside it, so the run reads a snapshot that many
//     epochs old.

// modelOps are the ops the oracle answers.
var modelOps = [...]string{"bfs", "sssp", "pagerank", "cc"}

// modelOracle is the writer's sequential copy of the graph: the edge map it
// mutates, the matrix committed at each epoch, and the reference answers,
// computed once per (epoch, op, source).
type modelOracle struct {
	mu      sync.Mutex
	edges   map[[2]int]float64
	epochs  []*sparse.CSR[float64]
	answers map[string][]float64
}

func newModelOracle(a *sparse.CSR[float64]) *modelOracle {
	o := &modelOracle{edges: map[[2]int]float64{}, answers: map[string][]float64{}}
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			o.edges[[2]int{i, j}] = vals[k]
		}
	}
	o.epochs = []*sparse.CSR[float64]{a}
	return o
}

// stage records the edge map as the matrix of the next epoch, before the
// flush that commits it publishes it, and returns that epoch.
func (o *modelOracle) stage(n int) uint64 {
	keys := make([][2]int, 0, len(o.edges))
	for k := range o.edges {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	a := sparse.NewCSR[float64](n, n)
	for _, k := range keys {
		a.RowPtr[k[0]+1]++
		a.ColIdx = append(a.ColIdx, k[1])
		a.Val = append(a.Val, o.edges[k])
	}
	for i := 0; i < n; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.epochs = append(o.epochs, a)
	return uint64(len(o.epochs) - 1)
}

// answer is the reference answer of op from source at epoch e (+Inf for an
// unreachable vertex), or an error when no flush committed e.
func (o *modelOracle) answer(e uint64, op string, source int) ([]float64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if e >= uint64(len(o.epochs)) {
		return nil, fmt.Errorf("the reply names epoch %d, but only %d were committed", e, len(o.epochs))
	}
	key := fmt.Sprintf("%d/%s/%d", e, op, source)
	if want, ok := o.answers[key]; ok {
		return want, nil
	}
	a := o.epochs[e]
	var want []float64
	switch op {
	case "bfs":
		for _, l := range algorithms.RefBFS(a, source) {
			want = append(want, float64(l))
		}
	case "sssp":
		want = algorithms.RefSSSP(a, source)
	case "pagerank":
		want = algorithms.RefPageRank(a, 0.85, 1e-6, 100)
	case "cc":
		labels, _ := algorithms.RefCC(a)
		for _, l := range labels {
			want = append(want, float64(l))
		}
	}
	o.answers[key] = want
	return want, nil
}

// check says where a reply departs from the oracle ("" when nowhere). Ranks
// are sums in another order, so they are compared within 1e-9; everything
// else is exact.
func (o *modelOracle) check(op string, source int, r reply) string {
	if r.code != http.StatusOK {
		return fmt.Sprintf("status %d (%v)", r.code, r.body)
	}
	if r.hdr.Get("X-GB-Stale") != "false" {
		return "a stale reply on a fault-free server"
	}
	epoch, err := strconv.ParseUint(r.hdr.Get("X-GB-Epoch"), 10, 64)
	if err != nil {
		return fmt.Sprintf("X-GB-Epoch %q: %v", r.hdr.Get("X-GB-Epoch"), err)
	}
	want, err := o.answer(epoch, op, source)
	if err != nil {
		return err.Error()
	}
	field := map[string]string{"bfs": "levels", "sssp": "dist", "pagerank": "ranks", "cc": "labels"}[op]
	got, _ := r.body[field].([]any)
	if len(got) != len(want) {
		return fmt.Sprintf("epoch %d: %s has %d entries, want %d", epoch, field, len(got), len(want))
	}
	for v, ref := range want {
		g, _ := got[v].(float64)
		switch {
		case math.IsInf(ref, 1) && got[v] == nil:
		case got[v] == nil:
			return fmt.Sprintf("epoch %d: %s[%d] = null, want %v", epoch, field, v, ref)
		case op == "pagerank" && math.Abs(g-ref) <= 1e-9:
		case g != ref:
			return fmt.Sprintf("epoch %d: %s[%d] = %v, want %v", epoch, field, v, got[v], ref)
		}
	}
	return ""
}

// heldQuery posts body from a goroutine of its own, which heldIn finds by
// its creator.
func heldQuery(s *Server, body map[string]any) <-chan reply {
	ch := make(chan reply, 1)
	go func() { ch <- serveQuery(s, context.Background(), body) }()
	return ch
}

// parkedIn reports whether a query started by heldQuery is parked — blocked
// on a mutex or in a select — with fn on its stack ("" matches any).
func parkedIn(fn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		header, _, _ := bytes.Cut(g, []byte("\n"))
		blocked := bytes.Contains(header, []byte("[select")) || bytes.Contains(header, []byte("[sync.Mutex.Lock"))
		if blocked && bytes.Contains(g, []byte(fn)) && bytes.Contains(g, []byte("created by repro/internal/serve.heldQuery")) {
			return true
		}
	}
	return false
}

// parkedOrAnswered waits until the held query parks inside fn, or has its
// reply (a reply-cache hit parks nowhere), and reports which.
func parkedOrAnswered(t *testing.T, ch <-chan reply, fn string) (parked bool, r reply) {
	t.Helper()
	waitFor(t, "the held query to park", func() bool {
		if len(ch) > 0 {
			return true
		}
		parked = parkedIn(fn)
		return parked
	})
	if !parked {
		r = <-ch
	}
	return parked, r
}

// TestServiceModelCheck runs the seeded model check: K posters and a writer
// over one graph. Each seed's schedule holds one sssp pinned across 9 to 12
// flushes, beside shorter holds of every op before and after pinning and
// free-running flushes. Every reply must equal the oracle at the epoch it
// names; that epoch is at least the one the last flush acknowledged before
// the request was sent; each poster sees monotone epochs; and at quiesce no
// admission slot, batch, arena loan or goroutine is left over.
func TestServiceModelCheck(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { modelCheck(t, seed) })
	}
}

func modelCheck(t *testing.T, seed int64) {
	const posters, perPoster, writerSteps = 3, 40, 24
	goroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(seed))
	n := 96 + rng.Intn(64)
	s := New(openTenants)
	if err := s.LoadGraph("g", sparse.ErdosRenyi[float64](n, 4, seed)); err != nil {
		t.Fatal(err)
	}
	g := s.graphByName("g")
	m, _ := g.stream.Matrix()
	csr, err := m.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	oracle := newModelOracle(csr)
	var acked atomic.Uint64 // the epoch of the last flush acknowledged

	// flush stages 1-4 changes on distinct coordinates — inserts and
	// overwrites of weight 1-9, deletes of stored edges — and commits them
	// as one epoch. locked says the caller holds the graph mutex, so it
	// stages and commits the way g.mutate and g.flush do under it.
	flush := func(rng *rand.Rand, locked bool) error {
		var rows, cols, delRows, delCols []int
		var vals []float64
		seen := map[[2]int]bool{}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			c := [2]int{rng.Intn(n), rng.Intn(n)}
			if seen[c] {
				continue
			}
			seen[c] = true
			if _, stored := oracle.edges[c]; stored && rng.Intn(3) == 0 {
				delRows, delCols = append(delRows, c[0]), append(delCols, c[1])
				delete(oracle.edges, c)
				continue
			}
			w := float64(1 + rng.Intn(9))
			rows, cols, vals = append(rows, c[0]), append(cols, c[1]), append(vals, w)
			oracle.edges[c] = w
		}
		want := oracle.stage(n)
		var epoch uint64
		var err error
		if !locked {
			if err = g.mutate(rows, cols, vals, delRows, delCols); err == nil {
				epoch, _, err = g.flush()
			}
		} else {
			if len(rows) > 0 {
				err = g.stream.UpdateBatch(rows, cols, vals)
			}
			for k := 0; err == nil && k < len(delRows); k++ {
				err = g.stream.Delete(delRows[k], delCols[k])
			}
			if err == nil {
				epoch, err = g.stream.Flush()
				g.publish()
			}
		}
		if err == nil && epoch != want {
			err = fmt.Errorf("flush committed epoch %d, the oracle staged %d", epoch, want)
		}
		acked.Store(epoch)
		return err
	}
	query := func(op string, source int) map[string]any {
		return map[string]any{"graph": "g", "op": op, "source": source}
	}
	// Posters ask sources below n/2; the writer's pinned holds ask the
	// upper half right after a flush, so they are reply-cache misses.
	fail := make(chan string, posters+1)
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(p)))
			last := uint64(0)
			for i := 0; i < perPoster; i++ {
				op, src := modelOps[rng.Intn(len(modelOps))], rng.Intn(n/2)
				before := acked.Load()
				r := serveQuery(s, context.Background(), query(op, src))
				what := fmt.Sprintf("poster %d query %d (%s from %d)", p, i, op, src)
				if d := oracle.check(op, src, r); d != "" {
					fail <- what + ": " + d
					return
				}
				epoch, _ := strconv.ParseUint(r.hdr.Get("X-GB-Epoch"), 10, 64)
				if epoch < before {
					fail <- fmt.Sprintf("%s: epoch %d, but epoch %d was acknowledged before it was sent", what, epoch, before)
					return
				}
				if epoch < last {
					fail <- fmt.Sprintf("%s: epoch %d after this poster saw %d", what, epoch, last)
					return
				}
				last = epoch
			}
		}(p)
	}

	// The writer: free flushes and holds, in an order drawn from the seed;
	// the long pinned hold lands at a drawn step.
	longAt, longest := rng.Intn(writerSteps), 0
	wrng := rand.New(rand.NewSource(seed*100 + posters))
	writer := func() string {
		for step := 0; step < writerSteps; step++ {
			kind, flushes := wrng.Intn(3), 1+wrng.Intn(4)
			if step == longAt {
				kind, flushes = 2, 9+wrng.Intn(4)
			}
			op, src := modelOps[wrng.Intn(len(modelOps))], n/2+wrng.Intn(n-n/2)
			switch kind {
			case 0: // a free flush
				if err := flush(wrng, false); err != nil {
					return err.Error()
				}
				continue
			case 1: // held before it pins: the writer holds the graph mutex
				before := acked.Load()
				g.mu.Lock()
				ch := heldQuery(s, query(op, src))
				parked, r := parkedOrAnswered(t, ch, "")
				for k := 0; k < flushes; k++ {
					if err := flush(wrng, true); err != nil {
						g.mu.Unlock()
						return err.Error()
					}
				}
				g.mu.Unlock()
				if parked {
					r = <-ch
				}
				if d := oracle.check(op, src, r); d != "" {
					return fmt.Sprintf("writer step %d (%s from %d held before its pin): %s", step, op, src, d)
				}
				if epoch, _ := strconv.ParseUint(r.hdr.Get("X-GB-Epoch"), 10, 64); epoch < before {
					return fmt.Sprintf("writer step %d: epoch %d, acknowledged %d before sending", step, epoch, before)
				}
			case 2: // held after it pins: an sssp miss parks on the state store
				if err := flush(wrng, false); err != nil {
					return err.Error()
				}
				pinned := acked.Load()
				g.states.mu.Lock()
				ch := heldQuery(s, query("sssp", src))
				parked, r := parkedOrAnswered(t, ch, "(*ssspStates).get")
				for k := 0; parked && k < flushes; k++ {
					if err := flush(wrng, false); err != nil {
						g.states.mu.Unlock()
						return err.Error()
					}
				}
				g.states.mu.Unlock()
				if parked {
					r = <-ch
					if epoch, _ := strconv.ParseUint(r.hdr.Get("X-GB-Epoch"), 10, 64); epoch == pinned {
						longest = max(longest, flushes)
					}
				}
				if d := oracle.check("sssp", src, r); d != "" {
					return fmt.Sprintf("writer step %d (sssp from %d held pinned across %d flushes): %s", step, src, flushes, d)
				}
			}
		}
		return ""
	}
	if d := writer(); d != "" {
		fail <- d
	}
	wg.Wait()
	close(fail)
	for d := range fail {
		t.Error(d)
	}
	if t.Failed() {
		return
	}
	if longest <= 8 {
		t.Errorf("the longest pinned hold spanned %d flushes, want more than 8", longest)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.limit.inFlight(); got != 0 {
		t.Errorf("%d admission slots held at quiesce", got)
	}
	if pending, running := g.batcherState(); pending != 0 || running {
		t.Errorf("batcher at quiesce: pending %d running %v", pending, running)
	}
	if got := g.base.ScratchOutstanding(); got != 0 {
		t.Errorf("%d arena loans outstanding at quiesce", got)
	}
	waitFor(t, fmt.Sprintf("the goroutines to fall back to %d", goroutines), func() bool {
		return runtime.NumGoroutine() <= goroutines
	})
	t.Logf("%d epochs committed; the longest pinned hold spanned %d flushes", acked.Load(), longest)
}
