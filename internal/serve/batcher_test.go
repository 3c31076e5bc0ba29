package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/gb"
	"repro/internal/sparse"
)

// The batcher's tests wait on its state, never on the wall clock: a run is
// held where it derives its context (the graph mutex), requests are posted
// behind it, and the test goes on when the queue holds them.

// reply is one query's outcome as the handler wrote it.
type reply struct {
	code int
	hdr  http.Header
	raw  []byte
	body map[string]any
}

// serveQuery runs one POST /query through the handler on the caller's
// goroutine. No socket is involved, so the server sees ctx end when it ends
// and the status it then writes can be read; it never fails the test itself,
// so any goroutine may call it.
func serveQuery(s *Server, ctx context.Context, body map[string]any) reply {
	buf, _ := json.Marshal(body) // a map of strings and numbers always encodes
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(buf)).WithContext(ctx)
	req.Header.Set("X-Tenant", "batch")
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	r := reply{code: rr.Code, hdr: rr.Header(), raw: rr.Body.Bytes()}
	_ = json.Unmarshal(r.raw, &r.body) // an undecodable body stays nil and fails the caller's checks
	return r
}

// goQuery is serveQuery on a goroutine of its own.
func goQuery(s *Server, ctx context.Context, body map[string]any) <-chan reply {
	ch := make(chan reply, 1)
	go func() { ch <- serveQuery(s, ctx, body) }()
	return ch
}

// recv waits for a reply that should already be on its way.
func recv(t *testing.T, what string, ch <-chan reply) reply {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: no reply", what)
		return reply{}
	}
}

func bfsBody(graph string, source int) map[string]any {
	return map[string]any{"graph": graph, "op": "bfs", "source": source}
}

// batcherState reads the graph's batcher under its lock.
func (g *graph) batcherState() (pending int, running bool) {
	g.batchMu.Lock()
	defer g.batchMu.Unlock()
	return len(g.pending), g.running
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// holdRun blocks the graph's batcher in the middle of a run: it takes the
// graph mutex, posts one BFS — which leads a batch of one and stops where the
// run derives its context — and returns once that run holds the batcher.
// Requests posted before release queue behind it and form the next batch.
func holdRun(t *testing.T, s *Server, g *graph, source int) (first <-chan reply, release func()) {
	t.Helper()
	g.mu.Lock()
	var once sync.Once
	release = func() { once.Do(g.mu.Unlock) }
	t.Cleanup(release)
	first = goQuery(s, context.Background(), bfsBody(g.name, source))
	waitFor(t, "the first run to take its batch", func() bool {
		pending, running := g.batcherState()
		return running && pending == 0
	})
	return first, release
}

// waitQueued returns once k requests are queued behind the running batch.
func waitQueued(t *testing.T, g *graph, k int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d requests to queue behind the running batch", k), func() bool {
		pending, _ := g.batcherState()
		return pending == k
	})
}

// metricValue reads one sample from /metrics; name carries its labels, if any
// (`gbserve_reply_cache_entries{graph="g"}`).
func metricValue(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	s.writeMetrics(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		var v float64
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("no %s in /metrics:\n%s", name, buf.String())
	return 0
}

// checkLevels compares a 200 BFS reply with the reference levels.
func checkLevels(t *testing.T, what string, r reply, want []int64) {
	t.Helper()
	if r.code != http.StatusOK {
		t.Fatalf("%s: status %d (%v)", what, r.code, r.body)
	}
	got := levelsOf(t, r.body)
	if len(got) != len(want) {
		t.Fatalf("%s: %d levels, want %d", what, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: diverges from gb.BFS at vertex %d: %d vs %d", what, v, got[v], want[v])
		}
	}
}

// TestBFSBatcherCoalesces: requests that arrive while a batch is running ride
// the next one together, and the request that found the graph idle rode alone.
func TestBFSBatcherCoalesces(t *testing.T) {
	s, _ := testServer(t, Config{})
	g := s.graphByName("g")
	ref, err := gb.New(gb.Locales(4), gb.Threads(4))
	if err != nil {
		t.Fatal(err)
	}
	rm := gb.MatrixFromCSR(ref, sparse.ErdosRenyi[float64](300, 6, 17))

	sources := []int{0, 5, 9, 33}
	k := len(sources) - 1
	replies := make([]<-chan reply, len(sources))
	var release func()
	replies[0], release = holdRun(t, s, g, sources[0])
	for i, src := range sources[1:] {
		replies[i+1] = goQuery(s, context.Background(), bfsBody("g", src))
	}
	waitQueued(t, g, k)
	release()

	for i, src := range sources {
		what := fmt.Sprintf("BFS from %d", src)
		r := recv(t, what, replies[i])
		want, err := gb.BFS(ref, rm, src)
		if err != nil {
			t.Fatal(err)
		}
		checkLevels(t, what, r, want.Level)
		wantBatch := float64(k)
		if i == 0 {
			wantBatch = 1
		}
		if r.body["batch"] != wantBatch {
			t.Errorf("%s: batch %v, want %v", what, r.body["batch"], wantBatch)
		}
		// Every member reports the modeled time of the batch it rode in.
		if ms, _ := r.body["modeled_ms"].(float64); !(ms > 0) {
			t.Errorf("%s: reply reports modeled_ms %v", what, r.body["modeled_ms"])
		}
		if _, ok := r.body["parents"]; ok {
			t.Errorf("%s: a fault-free reply carries parents", what)
		}
	}
	if runs, batched := metricValue(t, s, "gbserve_batch_runs_total"), metricValue(t, s, "gbserve_batched_queries_total"); runs != 2 || batched != float64(len(sources)) {
		t.Errorf("%v runs served %v queries, want 2 and %d", runs, batched, len(sources))
	}
	// The k that queued waited for the held run; the wait is on /metrics.
	if n, sum := metricValue(t, s, "gbserve_batch_wait_seconds_count"), metricValue(t, s, "gbserve_batch_wait_seconds_sum"); n != float64(len(sources)) || !(sum > 0) {
		t.Errorf("batch wait: %v s over %v queries, want a positive sum over %d", sum, n, len(sources))
	}
}

// TestBFSBatcherIdleRunsInline: on an idle graph the caller leads its own
// batch, so the result is there when joinBFS returns — nothing to wait for.
func TestBFSBatcherIdleRunsInline(t *testing.T) {
	s, _ := testServer(t, Config{})
	g := s.graphByName("g")
	select {
	case out := <-s.joinBFS(g, context.Background(), 3, 0):
		if out.err != nil || out.batch != 1 || len(out.levels) != 300 || out.levels[3] != 0 {
			t.Fatalf("lone BFS: err %v, batch %d, %d levels", out.err, out.batch, len(out.levels))
		}
	default:
		t.Fatal("joinBFS returned on an idle graph without the result: the BFS is waiting for something")
	}
	if pending, running := g.batcherState(); pending != 0 || running {
		t.Fatalf("idle again, but pending %d running %v", pending, running)
	}
}

// TestBFSBatcherCanceledWaiter: a waiter whose client goes away answers 499
// at once, not when the batch it queued for ends, and that batch runs
// without its source.
func TestBFSBatcherCanceledWaiter(t *testing.T) {
	s, _ := testServer(t, Config{})
	g := s.graphByName("g")
	first, release := holdRun(t, s, g, 0)

	const k = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	quitter := goQuery(s, ctx, bfsBody("g", 7))
	stayers := []<-chan reply{
		goQuery(s, context.Background(), bfsBody("g", 8)),
		goQuery(s, context.Background(), bfsBody("g", 9)),
	}
	waitQueued(t, g, k)
	inFlight := s.limit.inFlight()

	cancel()
	if r := recv(t, "the canceled waiter, its batch still held", quitter); r.code != statusClientClosed {
		t.Fatalf("canceled waiter: status %d (%v), want 499", r.code, r.body)
	}
	if got := s.limit.inFlight(); got != inFlight-1 {
		t.Fatalf("%d admission slots held after the waiter left, want %d", got, inFlight-1)
	}

	release()
	if r := recv(t, "the held BFS", first); r.code != http.StatusOK || r.body["batch"] != 1.0 {
		t.Fatalf("held BFS: status %d batch %v", r.code, r.body["batch"])
	}
	for i, ch := range stayers {
		if r := recv(t, "a waiter that stayed", ch); r.code != http.StatusOK || r.body["batch"] != float64(k-1) {
			t.Fatalf("waiter %d: status %d batch %v, want 200 in a batch of %d", i, r.code, r.body["batch"], k-1)
		}
	}

	// A batch nobody is left in runs nothing. The stayers' replies leave
	// before the hand-off goroutine marks the graph idle, so wait for that
	// first: on an idle graph the gone client leads its own batch.
	waitFor(t, "the batcher to go idle", func() bool {
		pending, running := g.batcherState()
		return pending == 0 && !running
	})
	runs := metricValue(t, s, "gbserve_batch_runs_total")
	if r := serveQuery(s, ctx, bfsBody("g", 7)); r.code != statusClientClosed {
		t.Fatalf("BFS from a client already gone: status %d, want 499", r.code)
	}
	if got := metricValue(t, s, "gbserve_batch_runs_total"); got != runs {
		t.Fatalf("an empty batch ran: %v runs, was %v", got, runs)
	}
	if pending, running := g.batcherState(); pending != 0 || running {
		t.Fatalf("batcher not idle after an empty batch: pending %d running %v", pending, running)
	}
}

// TestBFSBatcherBudgetPerMember: the run's modeled deadline is the most
// generous in the batch, and a member it overran is told so.
func TestBFSBatcherBudgetPerMember(t *testing.T) {
	s, _ := testServer(t, Config{})
	g := s.graphByName("g")
	first, release := holdRun(t, s, g, 0)

	withBudget := func(source int, ms float64) map[string]any {
		b := bfsBody("g", source)
		b["budget_ms"] = ms
		return b
	}
	hopeless := goQuery(s, context.Background(), withBudget(1, 1e-9))
	ample := goQuery(s, context.Background(), withBudget(2, 1e12))
	unbounded := goQuery(s, context.Background(), bfsBody("g", 3))
	waitQueued(t, g, 3)
	release()
	recv(t, "the held BFS", first)

	r := recv(t, "the member with a hopeless budget", hopeless)
	if msg, _ := r.body["error"].(string); r.code != http.StatusGatewayTimeout || !strings.Contains(msg, "deadline") {
		t.Fatalf("hopeless budget in a batch: status %d (%v), want a typed 504", r.code, r.body)
	}
	for what, ch := range map[string]<-chan reply{"ample": ample, "unbounded": unbounded} {
		if r := recv(t, what, ch); r.code != http.StatusOK || r.body["batch"] != 3.0 {
			t.Fatalf("%s budget beside a hopeless one: status %d (%v)", what, r.code, r.body)
		}
	}
}

// TestBFSBatcherSoak posts a BFS-heavy read mix from many goroutines over two
// graphs, repeating keys, while epochs commit beside them (run it under
// -race): every reply is gb's answer on the epoch it names, no poster is shown
// an epoch older than one it has seen, every BFS was either a reply-cache hit
// or went through the batcher, every SSSP miss says how its run started and
// /metrics counts the same, and at quiesce the batcher is idle and nothing is
// on loan.
func TestBFSBatcherSoak(t *testing.T) {
	const posters, nSources = 8, 16
	perPoster := 200
	if testing.Short() {
		perPoster = 25
	}
	s := New(Config{TenantRate: 1e9, TenantBurst: 1 << 30})
	csrs := map[string]*sparse.CSR[float64]{
		"a": sparse.ErdosRenyi[float64](300, 6, 17),
		"b": sparse.ErdosRenyi[float64](257, 4, 23),
	}
	// The writer sets these edges to weight 1 on odd flushes. On even ones it
	// deletes the first two and raises the other two to 50, so from epoch 1 on
	// an epoch's parity names its graph, and an odd flush only inserts and
	// lowers: the SSSP runs right after one may start warm, the ones after an
	// even flush start cold.
	rows, cols, vals := []int{0, 1, 2, 3}, []int{211, 97, 150, 42}, []float64{1, 1, 1, 1}
	toggle := func(g *graph, flush int) error {
		var err error
		if flush%2 == 1 {
			err = g.mutate(rows, cols, vals, nil, nil)
		} else {
			err = g.mutate(rows[2:], cols[2:], []float64{50, 50}, rows[:2], cols[:2])
		}
		if err == nil {
			_, _, err = g.flush()
		}
		return err
	}
	// One query in eight is an sssp, one a pagerank, one a cc; the rest BFS.
	opOf := func(k int) string {
		switch k % 8 {
		case 5:
			return "sssp"
		case 6:
			return "pagerank"
		case 7:
			return "cc"
		}
		return "bfs"
	}
	keyOf := func(op string, src int) string {
		if op == "pagerank" || op == "cc" {
			src = 0
		}
		return fmt.Sprintf("%s/%d", op, src)
	}

	// want[graph][epoch parity][op/source]: gb's answers on a second, idle
	// server's graph taken through the same two flushes the served one starts
	// with.
	idle := New(Config{})
	want := map[string][2]map[string]answer{}
	flushes := map[string]int{}
	for name, a := range csrs {
		if err := s.LoadGraph(name, a); err != nil {
			t.Fatal(err)
		}
		if err := idle.LoadGraph(name, a); err != nil {
			t.Fatal(err)
		}
		rg := idle.graphByName(name)
		var byParity [2]map[string]answer
		for flushes[name] < 2 {
			flushes[name]++
			for _, g := range []*graph{s.graphByName(name), rg} {
				if err := toggle(g, flushes[name]); err != nil {
					t.Fatal(err)
				}
			}
			m, epoch := rg.stream.Matrix()
			answers := map[string]answer{}
			for _, op := range []string{"bfs", "sssp", "pagerank", "cc"} {
				for src := 0; src < nSources; src++ {
					if _, done := answers[keyOf(op, src)]; done {
						continue
					}
					ans, err := libAnswer(rg.load, m, op, src)
					if err != nil {
						t.Fatal(err)
					}
					answers[keyOf(op, src)] = ans
				}
			}
			byParity[epoch%2] = answers
		}
		want[name] = byParity
	}

	// The writer commits an epoch on each graph per 16 answered queries.
	var answered, bfs200, bfsHits, ssspWarm, ssspCold atomic.Int64
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		for next := int64(16); ; next += 16 {
			for answered.Load() < next {
				select {
				case <-stop:
					writerDone <- nil
					return
				case <-time.After(50 * time.Microsecond):
				}
			}
			for name := range csrs {
				flushes[name]++
				if err := toggle(s.graphByName(name), flushes[name]); err != nil {
					writerDone <- err
					return
				}
			}
		}
	}()

	names := [2]string{"a", "b"}
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lastEpoch := map[string]float64{}
			for i := 0; i < perPoster && !t.Failed(); i++ {
				name, src, op := names[(p+i)%2], (p*perPoster+i)%nSources, opOf(p+i/2)
				if op == "sssp" {
					src %= 2 // few sources, so one is often asked again an epoch later
				}
				r := serveQuery(s, context.Background(), map[string]any{"graph": name, "op": op, "source": src})
				answered.Add(1)
				what := fmt.Sprintf("poster %d query %d (%s on %s from %d)", p, i, op, name, src)
				if r.code != http.StatusOK {
					t.Errorf("%s: status %d (%v)", what, r.code, r.body)
					return
				}
				hit := r.hdr.Get("X-GB-Cache") == "hit"
				switch start := r.hdr.Get("X-GB-SSSP-Start"); {
				case op == "bfs":
					bfs200.Add(1)
					if hit {
						bfsHits.Add(1)
					}
				case op == "sssp" && !hit && start == "warm":
					ssspWarm.Add(1)
				case op == "sssp" && !hit && start == "cold":
					ssspCold.Add(1)
				case op == "sssp" && !hit:
					t.Errorf("%s: a miss with X-GB-SSSP-Start %q", what, start)
					return
				}
				epoch, _ := r.body["epoch"].(float64)
				if epoch < lastEpoch[name] {
					t.Errorf("%s: served epoch %v after this poster saw %v", what, epoch, lastEpoch[name])
					return
				}
				lastEpoch[name] = epoch
				if d := want[name][int(epoch)%2][keyOf(op, src)].differs(op, r.body); d != "" {
					t.Errorf("%s: epoch %v (hit %v) departs from gb: %s", what, epoch, hit, d)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	batched := metricValue(t, s, "gbserve_batched_queries_total")
	t.Logf("%d BFS (%d hits, %v through the batcher in %v runs) among %d queries beside %d flushes; cache: %v hits, %v duplicate misses",
		bfs200.Load(), bfsHits.Load(), batched, metricValue(t, s, "gbserve_batch_runs_total"), answered.Load(), flushes["a"],
		metricValue(t, s, "gbserve_reply_cache_hits_total"), metricValue(t, s, "gbserve_reply_cache_duplicate_misses_total"))
	if batched+float64(bfsHits.Load()) != float64(bfs200.Load()) {
		t.Errorf("%v BFS through the batcher + %d hits != %d BFS answered 200", batched, bfsHits.Load(), bfs200.Load())
	}
	if bfsHits.Load() == 0 || batched == 0 {
		t.Errorf("the soak exercised one path only: %d BFS hits, %v batched", bfsHits.Load(), batched)
	}
	t.Logf("SSSP misses: %d warm, %d cold", ssspWarm.Load(), ssspCold.Load())
	for start, n := range map[string]int64{"warm": ssspWarm.Load(), "cold": ssspCold.Load()} {
		if got := metricValue(t, s, `gbserve_sssp_runs_total{start="`+start+`"}`); got != float64(n) {
			t.Errorf("gbserve_sssp_runs_total{start=%q} %v, but %d replies said so", start, got, n)
		}
	}
	if got := s.limit.inFlight(); got != 0 {
		t.Errorf("%d admission slots held at quiesce", got)
	}
	for name := range csrs {
		g := s.graphByName(name)
		if pending, running := g.batcherState(); pending != 0 || running {
			t.Errorf("graph %s at quiesce: pending %d running %v", name, pending, running)
		}
		if n := g.base.ScratchOutstanding(); n != 0 {
			t.Errorf("graph %s at quiesce: %d arena loans outstanding", name, n)
		}
		if flushes[name] < 4 {
			t.Errorf("graph %s: only %d flushes — the soak ran beside no writer", name, flushes[name])
		}
	}
}
