package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/gb"
	"repro/internal/sparse"
)

// The reply cache's tests. None waits on the wall clock: a hit is told from a
// miss by the X-GB-Cache header and the cache's own counters, and "a hit does
// no graph work" is shown by holding the graph mutex while it answers.

// openTenants lifts the token bucket out of the way of tests that post more
// than a burst.
var openTenants = Config{TenantRate: 1e9, TenantBurst: 1 << 30}

func query(s *Server, body map[string]any) reply {
	return serveQuery(s, context.Background(), body)
}

// wantCache fails unless r is a 200 whose X-GB-Cache header reads state.
func wantCache(t *testing.T, what string, r reply, state string) {
	t.Helper()
	if r.code != http.StatusOK {
		t.Fatalf("%s: status %d (%s)", what, r.code, r.raw)
	}
	if got := r.hdr.Get("X-GB-Cache"); got != state {
		t.Fatalf("%s: X-GB-Cache %q, want %q", what, got, state)
	}
}

// answer is what gb computes for one query: the op's result vector as JSON
// numbers (+Inf where the reply says null), or the triangle count.
type answer struct {
	vec       []float64
	triangles int64
}

// libAnswer runs op on m, which is bound to qc — a context no server uses.
func libAnswer(qc *gb.Context, m *gb.Matrix[float64], op string, source int) (a answer, err error) {
	var ints []int64
	switch op {
	case "bfs":
		var res *gb.BFSResult
		if res, err = gb.BFS(qc, m, source); err == nil {
			ints = res.Level
		}
	case "sssp":
		a.vec, _, err = gb.SSSP(m, source)
	case "pagerank":
		a.vec, _, err = gb.PageRank(m, 0.85, 1e-6, 100)
	case "cc":
		ints, _, err = gb.ConnectedComponents(m)
	case "triangles":
		a.triangles, err = gb.TriangleCount(m)
	default:
		err = fmt.Errorf("unknown op %q", op)
	}
	for _, v := range ints {
		a.vec = append(a.vec, float64(v))
	}
	return a, err
}

// differs says where a decoded 200 body departs from the library's answer
// ("" when nowhere). JSON carries float64 exactly, so everything is ==.
func (want answer) differs(op string, body map[string]any) string {
	if op == "triangles" {
		if got, _ := body["triangles"].(float64); int64(got) != want.triangles {
			return fmt.Sprintf("triangles %v, want %d", body["triangles"], want.triangles)
		}
		return ""
	}
	field := map[string]string{"bfs": "levels", "sssp": "dist", "pagerank": "ranks", "cc": "labels"}[op]
	got, _ := body[field].([]any)
	if len(got) != len(want.vec) {
		return fmt.Sprintf("%s has %d entries, want %d", field, len(got), len(want.vec))
	}
	for v, ref := range want.vec {
		if math.IsInf(ref, 1) {
			if got[v] != nil {
				return fmt.Sprintf("%s[%d] = %v, want null (unreachable)", field, v, got[v])
			}
		} else if got[v] != ref {
			return fmt.Sprintf("%s[%d] = %v, want %v", field, v, got[v], ref)
		}
	}
	return ""
}

// TestReplyCacheHitDoesNoGraphWork: the second identical query is a hit whose
// body is the miss's byte for byte, and it answers while the test holds the
// graph mutex — so it derived nothing and ran nothing.
func TestReplyCacheHitDoesNoGraphWork(t *testing.T) {
	s, _ := testServer(t, openTenants)
	g := s.graphByName("g")
	for _, op := range []string{"bfs", "sssp", "pagerank", "cc", "triangles"} {
		body := map[string]any{"graph": "g", "op": op, "source": 5}
		miss := query(s, body)
		wantCache(t, op+", first", miss, "miss")

		g.mu.Lock()
		hit := recv(t, op+" repeated under the held graph mutex", goQuery(s, context.Background(), body))
		g.mu.Unlock()
		wantCache(t, op+", repeated", hit, "hit")
		if !bytes.Equal(hit.raw, miss.raw) {
			t.Fatalf("%s: the hit's body differs from the miss's:\n%s\n%s", op, hit.raw, miss.raw)
		}
		if hit.hdr.Get("X-GB-Epoch") != "0" || hit.hdr.Get("X-GB-Stale") != "false" {
			t.Fatalf("%s: hit's snapshot headers %q/%q", op, hit.hdr.Get("X-GB-Epoch"), hit.hdr.Get("X-GB-Stale"))
		}
	}
	if hits, misses := metricValue(t, s, "gbserve_reply_cache_hits_total"), metricValue(t, s, "gbserve_reply_cache_misses_total"); hits != 5 || misses != 5 {
		t.Errorf("%v hits and %v misses on /metrics, want 5 and 5", hits, misses)
	}
	// Hits are queries: admitted, counted, and released.
	var buf bytes.Buffer
	s.met.write(&buf)
	if !strings.Contains(buf.String(), `gbserve_queries_total{tenant="batch",op="cc",outcome="ok"} 2`) {
		t.Errorf("the cc hit is not in gbserve_queries_total:\n%s", buf.String())
	}
	if n := s.limit.inFlight(); n != 0 {
		t.Errorf("%d admission slots held after the hits", n)
	}
}

// TestReplyCacheHitsMatchLibrary: every op on an ER and an R-MAT graph — the
// vectors a hit carries are gb's on a context of its own.
func TestReplyCacheHitsMatchLibrary(t *testing.T) {
	s, _ := testServer(t, openTenants)
	web, err := sparse.RMAT[float64](8, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadGraph("web", web); err != nil {
		t.Fatal(err)
	}
	ref, err := gb.New(gb.Locales(4), gb.Threads(4))
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*sparse.CSR[float64]{"g": sparse.ErdosRenyi[float64](300, 6, 17), "web": web} {
		m := gb.MatrixFromCSR(ref, a)
		for _, op := range []string{"bfs", "sssp", "pagerank", "cc", "triangles"} {
			what := name + "/" + op
			body := map[string]any{"graph": name, "op": op, "source": 0}
			wantCache(t, what, query(s, body), "miss")
			hit := query(s, body)
			wantCache(t, what+" again", hit, "hit")
			want, err := libAnswer(ref, m, op, 0)
			if err != nil {
				t.Fatal(err)
			}
			if d := want.differs(op, hit.body); d != "" {
				t.Errorf("%s: the hit departs from gb: %s", what, d)
			}
		}
	}
}

// TestReplyCacheEpochTurnover: a flush retires every entry; a run whose
// lookup saw the old epoch stores under the epoch it was served from; a run
// pinned to an epoch the cache has left stores nothing.
func TestReplyCacheEpochTurnover(t *testing.T) {
	s, _ := testServer(t, openTenants)
	g := s.graphByName("g")
	entries := func() float64 { return metricValue(t, s, `gbserve_reply_cache_entries{graph="g"}`) }
	cc := map[string]any{"graph": "g", "op": "cc"}

	wantCache(t, "cc at epoch 0", query(s, cc), "miss")
	wantCache(t, "bfs at epoch 0", query(s, bfsBody("g", 3)), "miss")
	wantCache(t, "cc at epoch 0 again", query(s, cc), "hit")
	if n := entries(); n != 2 {
		t.Fatalf("%v entries at epoch 0, want 2", n)
	}

	if err := g.mutate([]int{0}, []int{9}, []float64{1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.flush(); err != nil {
		t.Fatal(err)
	}
	r := query(s, cc)
	wantCache(t, "cc after the flush", r, "miss")
	if r.hdr.Get("X-GB-Epoch") != "1" {
		t.Fatalf("cc after the flush served epoch %q, want 1", r.hdr.Get("X-GB-Epoch"))
	}
	if n := entries(); n != 1 {
		t.Fatalf("%v entries after the flush, want the new epoch's 1", n)
	}

	// A BFS looks the cache up at epoch 1 and stops where its run derives a
	// context; epoch 2 commits meanwhile (the test holds the graph mutex, so
	// it flushes the stream itself). The reply is epoch 2's and is stored as
	// epoch 2's: the next one is a hit on it.
	first, release := holdRun(t, s, g, 7)
	if err := g.stream.Update(1, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.stream.Flush(); err != nil {
		t.Fatal(err)
	}
	g.publish()
	release()
	late := recv(t, "the BFS that straddled the flush", first)
	wantCache(t, "the BFS that straddled the flush", late, "miss")
	if late.hdr.Get("X-GB-Epoch") != "2" {
		t.Fatalf("the straddling BFS was served epoch %q, want 2", late.hdr.Get("X-GB-Epoch"))
	}
	again := query(s, bfsBody("g", 7))
	wantCache(t, "the same BFS at epoch 2", again, "hit")
	if again.hdr.Get("X-GB-Epoch") != "2" || !bytes.Equal(again.raw, late.raw) {
		t.Fatalf("the hit is not the straddling run's reply: epoch %q", again.hdr.Get("X-GB-Epoch"))
	}
	if n := entries(); n != 1 {
		t.Fatalf("%v entries at epoch 2, want 1", n)
	}

	// A run that outlived the flush puts under the epoch it was pinned to.
	g.replies.put(replyKey{epoch: 1, op: "sssp", source: 4}, []byte("{}\n"), 1)
	if n := entries(); n != 1 {
		t.Fatalf("a put for a retired epoch left %v entries, want 1", n)
	}
	if _, ok := g.replies.get(replyKey{epoch: 1, op: "cc"}); ok {
		t.Fatal("a reader pinned to a retired epoch got a hit")
	}
	wantCache(t, "epoch 2 after the stragglers", query(s, bfsBody("g", 7)), "hit")
}

// TestReplyCachePageRankKey: the key holds the effective parameters.
func TestReplyCachePageRankKey(t *testing.T) {
	s, _ := testServer(t, openTenants)
	pr := func(extra map[string]any) reply {
		body := map[string]any{"graph": "g", "op": "pagerank", "source": 17} // source is not PageRank's
		for k, v := range extra {
			body[k] = v
		}
		return query(s, body)
	}
	implicit := pr(nil)
	wantCache(t, "defaults left out", implicit, "miss")
	explicit := pr(map[string]any{"damping": 0.85, "tol": 1e-6, "max_iter": 100, "source": 0})
	wantCache(t, "defaults spelled out", explicit, "hit")
	if !bytes.Equal(explicit.raw, implicit.raw) {
		t.Fatal("explicit defaults got another body")
	}
	wantCache(t, "unusable values mean the defaults", pr(map[string]any{"damping": 1.5, "tol": -1, "max_iter": -3}), "hit")
	half := pr(map[string]any{"damping": 0.5})
	wantCache(t, "damping 0.5", half, "miss")
	if bytes.Equal(half.raw, implicit.raw) {
		t.Fatal("damping 0.5 answered with damping 0.85's ranks")
	}
	wantCache(t, "damping 0.5 again", pr(map[string]any{"damping": 0.5}), "hit")
	wantCache(t, "max_iter 3", pr(map[string]any{"max_iter": 3}), "miss")
}

// TestReplyCacheBudgetOnHit: budget_ms bounds the modeled cost of the answer
// whoever paid for it, and timeouts are not part of the key.
func TestReplyCacheBudgetOnHit(t *testing.T) {
	s, _ := testServer(t, openTenants)
	for _, op := range []string{"pagerank", "bfs"} {
		body := map[string]any{"graph": "g", "op": op, "source": 2}
		wantCache(t, op, query(s, body), "miss")

		body["budget_ms"] = 1e-9
		r := query(s, body)
		if msg, _ := r.body["error"].(string); r.code != http.StatusGatewayTimeout || !strings.Contains(msg, "deadline") {
			t.Fatalf("%s hit over its budget: status %d (%s), want a typed 504", op, r.code, r.raw)
		}
		if r.hdr.Get("X-GB-Cache") != "hit" {
			t.Fatalf("%s: the 504 came from a run, not from the cached reply's modeled_ms", op)
		}
		body["budget_ms"] = 1e12
		for _, timeout := range []int{5000, 7000} {
			body["timeout_ms"] = timeout
			wantCache(t, fmt.Sprintf("%s, ample budget, timeout_ms %d", op, timeout), query(s, body), "hit")
		}
	}
	if n := metricValue(t, s, `gbserve_reply_cache_entries{graph="g"}`); n != 2 {
		t.Errorf("%v entries, want 2: budgets and timeouts must not split them", n)
	}
	var buf bytes.Buffer
	s.met.write(&buf)
	if !strings.Contains(buf.String(), `gbserve_queries_total{tenant="batch",op="pagerank",outcome="deadline"} 1`) {
		t.Errorf("the hit's 504 is not an outcome=\"deadline\":\n%s", buf.String())
	}
}

// TestReplyCacheChaosBypasses: a chaos query neither reads nor fills it.
func TestReplyCacheChaosBypasses(t *testing.T) {
	s, _ := testServer(t, openTenants)
	chaos := bfsBody("g", 0)
	chaos["chaos_seed"] = 2
	for i, fill := range []bool{false, true} {
		if fill {
			wantCache(t, "fault-free BFS", query(s, bfsBody("g", 0)), "miss")
		}
		r := query(s, chaos)
		if r.code != http.StatusOK || r.hdr.Get("X-GB-Cache") != "" {
			t.Fatalf("chaos query %d: status %d, X-GB-Cache %q (want 200 and no header)", i, r.code, r.hdr.Get("X-GB-Cache"))
		}
		if steps, _ := r.body["fault_steps"].(float64); steps == 0 {
			t.Fatalf("chaos query %d did not run under its fault plan: %s", i, r.raw)
		}
		if n, _, entries := s.graphByName("g").replies.stats(); n.hits != 0 || entries != i {
			t.Fatalf("after chaos query %d: %d hits, %d entries, want 0 and %d", i, n.hits, entries, i)
		}
	}
	wantCache(t, "fault-free BFS after the chaos ones", query(s, bfsBody("g", 0)), "hit")
}

// TestReplyCacheStaleFlagInKey: a stale serve and a fresh one of the same
// epoch are two entries, and a hit's X-GB-Stale header says what its body
// says. No test at this layer forces a stale flush, so the stale entry is
// planted and the published word is set by hand.
func TestReplyCacheStaleFlagInKey(t *testing.T) {
	s, _ := testServer(t, openTenants)
	g := s.graphByName("g")
	cc := map[string]any{"graph": "g", "op": "cc"}
	fresh := query(s, cc)
	wantCache(t, "cc, fresh", fresh, "miss")

	var resp queryResponse
	if err := json.Unmarshal(fresh.raw, &resp); err != nil {
		t.Fatal(err)
	}
	resp.Stale = true
	staleBody, ok := encodeJSON(&resp)
	if !ok {
		t.Fatal("the stale reply does not encode")
	}
	g.replies.put(replyKey{epoch: 0, stale: true, op: "cc"}, staleBody, resp.ModeledMS)

	for _, stale := range []bool{true, false, true} {
		g.served.Store(0) // epoch 0, fresh
		if stale {
			g.served.Store(1) // epoch 0, the stale bit
		}
		r := query(s, cc)
		wantCache(t, fmt.Sprintf("cc with the stale bit %v", stale), r, "hit")
		inBody, _ := r.body["stale"].(bool)
		if hdr := r.hdr.Get("X-GB-Stale"); hdr != fmt.Sprint(stale) || inBody != stale {
			t.Fatalf("stale bit %v: X-GB-Stale %q, body says %v", stale, hdr, inBody)
		}
	}
	if _, _, entries := g.replies.stats(); entries != 2 {
		t.Fatalf("%d entries, want the fresh and the stale one", entries)
	}
}

// TestReplyCacheCap: under a small cap inserts evict, the held bytes never
// pass it, a body over an eighth of it is not stored, and every reply — hit
// or miss — stays right.
func TestReplyCacheCap(t *testing.T) {
	s, _ := testServer(t, openTenants)
	g := s.graphByName("g")
	ref, err := gb.New(gb.Locales(4), gb.Threads(4))
	if err != nil {
		t.Fatal(err)
	}
	m := gb.MatrixFromCSR(ref, sparse.ErdosRenyi[float64](300, 6, 17))

	probe := query(s, bfsBody("g", 0))
	wantCache(t, "probe", probe, "miss")
	g.replies.max = 8*len(probe.raw) + 256 // room for about eight BFS replies, each under an eighth
	const nSources = 24
	hits := 0
	for pass := 0; pass < 3; pass++ {
		for src := 0; src < nSources; src++ {
			r := query(s, bfsBody("g", src))
			want, err := gb.BFS(ref, m, src)
			if err != nil {
				t.Fatal(err)
			}
			checkLevels(t, fmt.Sprintf("pass %d BFS from %d (%s)", pass, src, r.hdr.Get("X-GB-Cache")), r, want.Level)
			if r.hdr.Get("X-GB-Cache") == "hit" {
				hits++
			}
			if _, held, _ := g.replies.stats(); held > g.replies.max {
				t.Fatalf("cache holds %d bytes, cap %d", held, g.replies.max)
			}
		}
	}
	n, held, entries := g.replies.stats()
	if n.evictions == 0 || entries == 0 {
		t.Fatalf("%d evictions, %d entries (%d bytes) under a cap of %d", n.evictions, entries, held, g.replies.max)
	}
	t.Logf("%d hits, %d evictions, %d entries over %d sources x 3", hits, n.evictions, entries, nSources)

	// A PageRank body is several times a BFS one: over an eighth of the cap.
	pr := map[string]any{"graph": "g", "op": "pagerank"}
	big := query(s, pr)
	wantCache(t, "pagerank", big, "miss")
	if len(big.raw) <= g.replies.max/8 {
		t.Fatalf("the pagerank body (%d bytes) is not over an eighth of the cap %d: the test tests nothing", len(big.raw), g.replies.max)
	}
	wantCache(t, "pagerank again", query(s, pr), "miss")
	if _, _, after := g.replies.stats(); after != entries {
		t.Fatalf("an over-size body changed the cache: %d entries, was %d", after, entries)
	}
	if got := metricValue(t, s, "gbserve_reply_cache_evictions_total"); got != float64(n.evictions) {
		t.Errorf("gbserve_reply_cache_evictions_total %v, the cache counted %d", got, n.evictions)
	}
}

// TestReplyCacheDuplicateMiss: two runs of one key — the second finds the
// entry there when it comes to store, keeps the first body, and is counted.
func TestReplyCacheDuplicateMiss(t *testing.T) {
	c := newReplyCache()
	k := replyKey{op: "cc"}
	c.put(k, []byte("first"), 1)
	c.put(k, []byte("second"), 2)
	r, ok := c.get(k)
	if n, held, entries := c.stats(); !ok || string(r.body) != "first" || n.duplicateMisses != 1 || held != len("first") || entries != 1 {
		t.Fatalf("after a duplicate put: body %q, %+v, %d bytes, %d entries", r.body, n, held, entries)
	}
}

// TestOversizeBodyIs413: request bodies are bounded before admission, and the
// server goes on answering.
func TestOversizeBodyIs413(t *testing.T) {
	s, _ := testServer(t, Config{})
	huge := `{"graph":"` + strings.Repeat("g", maxQueryBody) + `","op":"cc"}`
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(huge))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	var body map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &body); rr.Code != http.StatusRequestEntityTooLarge || err != nil || body["error"] == "" {
		t.Fatalf("over-size /query body: status %d (%.80s), want a JSON 413", rr.Code, rr.Body.String())
	}
	if r := query(s, map[string]any{"graph": "g", "op": "cc"}); r.code != http.StatusOK {
		t.Fatalf("query after the 413: status %d (%s)", r.code, r.raw)
	}
	// The largest body a query can need is far under the limit.
	if r := query(s, map[string]any{"graph": "g", "op": "cc", "pad": strings.Repeat("x", maxQueryBody/2)}); r.code != http.StatusOK {
		t.Fatalf("half-limit body: status %d", r.code)
	}
}

// TestReadyzAndEpochGaugeTakeNoGraphLock: a readiness probe and the epoch
// gauge read the published word, so they answer while a flush (here, the
// test) holds the graph mutex.
func TestReadyzAndEpochGaugeTakeNoGraphLock(t *testing.T) {
	s, _ := testServer(t, Config{})
	g := s.graphByName("g")
	if err := g.mutate([]int{0}, []int{9}, []float64{1}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.flush(); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	done := make(chan reply, 1)
	go func() {
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		r := reply{code: rr.Code}
		_ = json.Unmarshal(rr.Body.Bytes(), &r.body)
		done <- r
	}()
	r := recv(t, "/readyz under the held graph mutex", done)
	if epochs, _ := r.body["graphs"].(map[string]any); r.code != http.StatusOK || epochs["g"] != 1.0 {
		t.Fatalf("/readyz: status %d, body %v, want 200 with g at epoch 1", r.code, r.body)
	}

	gauges := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		writeGraphGauges(&buf, []*graph{g})
		gauges <- buf.String()
	}()
	select {
	case out := <-gauges:
		for _, want := range []string{`gbserve_graph_epoch{graph="g"} 1`, `gbserve_scratch_outstanding{graph="g"} 0`, `gbserve_reply_cache_bytes{graph="g"} 0`} {
			if !strings.Contains(out, want+"\n") {
				t.Errorf("no %q in the lock-free gauges:\n%s", want, out)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the lock-free gauges waited for the graph mutex")
	}
}
