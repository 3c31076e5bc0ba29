package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/gb"
	"repro/internal/algorithms"
	"repro/internal/sparse"
)

// testServer boots a Server with one ER graph loaded and returns it with its
// httptest frontend.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.LoadGraph("g", sparse.ErdosRenyi[float64](300, 6, 17)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a query and decodes the JSON body whatever the status.
func post(t *testing.T, ts *httptest.Server, path, tenant string, body any) (int, http.Header, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: undecodable body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, out
}

func levelsOf(t *testing.T, body map[string]any) []int64 {
	t.Helper()
	raw, ok := body["levels"].([]any)
	if !ok {
		t.Fatalf("no levels in %v", body)
	}
	out := make([]int64, len(raw))
	for i, v := range raw {
		out[i] = int64(v.(float64))
	}
	return out
}

func TestQueryEndpointsBasics(t *testing.T) {
	_, ts := testServer(t, Config{})

	// Reference run outside the server.
	ref, err := gb.New(gb.Locales(4), gb.Threads(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := gb.BFS(ref, gb.MatrixFromCSR(ref, sparse.ErdosRenyi[float64](300, 6, 17)), 3)
	if err != nil {
		t.Fatal(err)
	}

	status, hdr, body := post(t, ts, "/query", "alice", map[string]any{"graph": "g", "op": "bfs", "source": 3})
	if status != http.StatusOK {
		t.Fatalf("bfs status %d: %v", status, body)
	}
	if hdr.Get("X-GB-Epoch") != "0" || hdr.Get("X-GB-Stale") != "false" {
		t.Fatalf("snapshot headers wrong: epoch=%q stale=%q", hdr.Get("X-GB-Epoch"), hdr.Get("X-GB-Stale"))
	}
	got := levelsOf(t, body)
	for i := range want.Level {
		if got[i] != want.Level[i] {
			t.Fatalf("served BFS diverges from library at vertex %d: %d vs %d", i, got[i], want.Level[i])
		}
	}

	for _, op := range []string{"sssp", "pagerank", "cc", "triangles"} {
		if status, _, body := post(t, ts, "/query", "", map[string]any{"graph": "g", "op": op, "source": 0}); status != http.StatusOK {
			t.Fatalf("%s status %d: %v", op, status, body)
		}
	}

	// Validation failures are typed client errors.
	if status, _, _ := post(t, ts, "/query", "", map[string]any{"graph": "nope", "op": "bfs"}); status != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", status)
	}
	if status, _, _ := post(t, ts, "/query", "", map[string]any{"graph": "g", "op": "sort"}); status != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400", status)
	}
	if status, _, _ := post(t, ts, "/query", "", map[string]any{"graph": "g", "op": "bfs", "source": 9999}); status != http.StatusBadRequest {
		t.Fatalf("bad source: status %d, want 400", status)
	}

	// Health endpoints.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

// TestChaosQueriesCorrectOrFlagged is the acceptance criterion: under crash
// chaos, every response is either bitwise-equal to the fault-free answer
// (exact policies) or explicitly flagged best-effort — never a torn result.
func TestChaosQueriesCorrectOrFlagged(t *testing.T) {
	_, ts := testServer(t, Config{})

	_, _, ref := post(t, ts, "/query", "", map[string]any{"graph": "g", "op": "bfs", "source": 0})
	want := levelsOf(t, ref)

	for seed := int64(1); seed <= 3; seed++ {
		// Probe: a crash-free chaos run reports its fault-step count, so the
		// crash below can be planted squarely inside the algorithm's window.
		status, _, probe := post(t, ts, "/query", "chaos", map[string]any{
			"graph": "g", "op": "bfs", "source": 0, "chaos_seed": seed,
		})
		if status != http.StatusOK {
			t.Fatalf("seed %d probe: status %d: %v", seed, status, probe)
		}
		steps, _ := probe["fault_steps"].(float64)
		if steps < 4 {
			t.Fatalf("seed %d probe: only %v fault steps, cannot plant a crash", seed, steps)
		}
		crashStep := int(steps) / 2

		for _, pol := range []string{"redistribute", "failover"} {
			status, hdr, body := post(t, ts, "/query", "chaos", map[string]any{
				"graph": "g", "op": "bfs", "source": 0,
				"chaos_seed": seed, "chaos_policy": pol,
				"crash_locale": 2, "crash_step": crashStep,
			})
			if status != http.StatusOK {
				t.Fatalf("seed %d %s: status %d: %v", seed, pol, status, body)
			}
			if recov, _ := body["recoveries"].(float64); recov < 1 {
				t.Fatalf("seed %d %s: crash did not fire (recoveries=%v)", seed, pol, body["recoveries"])
			}
			if hdr.Get("X-GB-BestEffort") != "" {
				t.Fatalf("seed %d %s: exact policy flagged best-effort", seed, pol)
			}
			got := levelsOf(t, body)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d %s: chaos BFS diverges from fault-free at vertex %d", seed, pol, i)
				}
			}
		}

		status, hdr, body := post(t, ts, "/query", "chaos", map[string]any{
			"graph": "g", "op": "bfs", "source": 0,
			"chaos_seed": seed, "chaos_policy": "besteffort",
			"crash_locale": 2, "crash_step": crashStep,
		})
		if status != http.StatusOK {
			t.Fatalf("seed %d besteffort: status %d: %v", seed, status, body)
		}
		if recov, _ := body["recoveries"].(float64); recov >= 1 {
			// A fired best-effort recovery must be flagged on the response.
			if hdr.Get("X-GB-BestEffort") != "true" || hdr.Get("X-GB-Stale") != "true" {
				t.Fatalf("seed %d: best-effort degradation not flagged (headers %v)", seed, hdr)
			}
		}
	}

	// Chaos never leaks into the shared base context: the same fault-free
	// query, run again, still answers bitwise-identically after all that
	// crashing. (Deleting a self-loop, there or not, changes no BFS level and
	// turns the epoch over, so the reply cache has nothing for it.)
	for _, step := range []string{"mutate", "flush"} {
		if st, _, body := post(t, ts, "/graphs/g/"+step, "", map[string]any{"del_rows": []int{0}, "del_cols": []int{0}}); st != http.StatusOK {
			t.Fatalf("%s: %d (%v)", step, st, body)
		}
	}
	_, hdr, after := post(t, ts, "/query", "", map[string]any{"graph": "g", "op": "bfs", "source": 0})
	if hdr.Get("X-GB-Cache") != "miss" || hdr.Get("X-GB-Epoch") != "1" {
		t.Fatalf("the BFS after the chaos queries did not run: X-GB-Cache %q at epoch %q", hdr.Get("X-GB-Cache"), hdr.Get("X-GB-Epoch"))
	}
	got := levelsOf(t, after)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fault-free BFS changed after chaos queries at vertex %d", i)
		}
	}
}

func TestDeadlineAndTimeoutTyped(t *testing.T) {
	_, ts := testServer(t, Config{})

	// A hopeless modeled budget: typed 504 within one round — through the BFS
	// batcher as on a context of the query's own.
	for _, op := range []string{"pagerank", "bfs"} {
		status, _, body := post(t, ts, "/query", "tina", map[string]any{
			"graph": "g", "op": op, "budget_ms": 1e-9,
		})
		if status != http.StatusGatewayTimeout {
			t.Fatalf("%s modeled deadline: status %d (%v), want 504", op, status, body)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "deadline") {
			t.Fatalf("%s deadline error not typed: %v", op, body)
		}
	}

	// An ample budget succeeds.
	for _, op := range []string{"pagerank", "bfs"} {
		if status, _, body := post(t, ts, "/query", "tina", map[string]any{
			"graph": "g", "op": op, "budget_ms": 1e12,
		}); status != http.StatusOK {
			t.Fatalf("%s ample budget: status %d (%v)", op, status, body)
		}
	}
}

func TestAdmissionSheddingUnderSaturation(t *testing.T) {
	s, ts := testServer(t, Config{
		MaxConcurrent: 1, MaxQueue: 1, MaxWait: 20 * time.Millisecond,
		TenantRate: 1000, TenantBurst: 1000,
	})

	// Saturate deterministically: hold the only slot, so every concurrent
	// request must queue (one, briefly) or shed. Queries on real graphs are
	// fast enough that racing goroutines against each other is flaky; holding
	// the slot pins the server at capacity for the whole burst.
	if ok, _ := s.limit.acquire(context.Background()); !ok {
		t.Fatal("could not take the only slot on an idle server")
	}

	const n = 6
	statuses := make([]int, n)
	retryAfter := make([]string, n)
	durs := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			st, hdr, _ := post(t, ts, "/query", fmt.Sprintf("t%d", i%3), map[string]any{
				"graph": "g", "op": "pagerank",
			})
			statuses[i], retryAfter[i], durs[i] = st, hdr.Get("Retry-After"), time.Since(start)
		}(i)
	}
	wg.Wait()

	shed := 0
	for i, st := range statuses {
		if st != http.StatusTooManyRequests {
			t.Errorf("request %d admitted past a full server: status %d", i, st)
			continue
		}
		shed++
		if retryAfter[i] == "" {
			t.Errorf("request %d shed without Retry-After", i)
		}
		if durs[i] > 2*time.Second {
			t.Errorf("shed request %d took %v: sheds must be fast", i, durs[i])
		}
	}
	if shed != n {
		t.Fatalf("%d/%d requests shed at capacity", shed, n)
	}

	// Releasing the slot restores service: admitted queries complete.
	s.limit.release()
	if st, _, body := post(t, ts, "/query", "t0", map[string]any{"graph": "g", "op": "pagerank"}); st != http.StatusOK {
		t.Fatalf("query after release: %d (%v)", st, body)
	}

	// The shed and ok counters surfaced on /metrics.
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "gbserve_shed_total") || !strings.Contains(string(metrics), `outcome="ok"`) {
		t.Fatalf("metrics missing shed/ok counters:\n%s", metrics)
	}
}

func TestTenantRateLimitIsolation(t *testing.T) {
	_, ts := testServer(t, Config{TenantRate: 0.001, TenantBurst: 1})

	if st, _, body := post(t, ts, "/query", "alice", map[string]any{"graph": "g", "op": "cc"}); st != http.StatusOK {
		t.Fatalf("alice's first query: %d (%v)", st, body)
	}
	st, hdr, _ := post(t, ts, "/query", "alice", map[string]any{"graph": "g", "op": "cc"})
	if st != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("alice's second query: status %d Retry-After %q, want 429 with hint", st, hdr.Get("Retry-After"))
	}
	// Another tenant's bucket is untouched.
	if st, _, body := post(t, ts, "/query", "bob", map[string]any{"graph": "g", "op": "cc"}); st != http.StatusOK {
		t.Fatalf("bob throttled by alice's bucket: %d (%v)", st, body)
	}
}

func TestMutateFlushAdvancesServedEpoch(t *testing.T) {
	_, ts := testServer(t, Config{})

	st, _, body := post(t, ts, "/graphs/g/mutate", "", map[string]any{
		"rows": []int{0, 1}, "cols": []int{1, 2}, "vals": []float64{9, 9},
	})
	if st != http.StatusOK {
		t.Fatalf("mutate: %d (%v)", st, body)
	}
	if p, _ := body["pending"].(float64); p != 2 {
		t.Fatalf("pending = %v, want 2", body["pending"])
	}
	if st, _, body = post(t, ts, "/graphs/g/flush", "", map[string]any{}); st != http.StatusOK {
		t.Fatalf("flush: %d (%v)", st, body)
	}
	if e, _ := body["epoch"].(float64); e != 1 {
		t.Fatalf("flush epoch = %v, want 1", body["epoch"])
	}

	// Queries now serve epoch 1, and the mutation is visible.
	st, hdr, body := post(t, ts, "/query", "", map[string]any{"graph": "g", "op": "bfs", "source": 0})
	if st != http.StatusOK {
		t.Fatalf("query after flush: %d (%v)", st, body)
	}
	if hdr.Get("X-GB-Epoch") != "1" {
		t.Fatalf("served epoch %q after flush, want 1", hdr.Get("X-GB-Epoch"))
	}
	if lv := levelsOf(t, body); lv[1] != 1 {
		t.Fatalf("inserted edge 0->1 not visible: level[1] = %d", lv[1])
	}
}

func TestDrainRejectsAndCompletes(t *testing.T) {
	s, ts := testServer(t, Config{})

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain with no queries in flight: %v", err)
	}
	if s.Ready() {
		t.Fatal("still ready after drain")
	}
	if st, _, body := post(t, ts, "/query", "", map[string]any{"graph": "g", "op": "cc"}); st != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %d (%v), want 503", st, body)
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
}

// TestCanceledClientTypedOutcome drives a query whose client has given up and
// asserts the server returns the typed 499, records the canceled outcome, and
// leaks no admission slot. (That a mid-run cancel aborts within one round is
// covered by the gb-level cancellation tests; racing a wall-clock cancel
// against a real query here would flake.)
func TestCanceledClientTypedOutcome(t *testing.T) {
	s, _ := testServer(t, Config{})

	body, _ := json.Marshal(map[string]any{"graph": "g", "op": "pagerank"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the query starts
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("X-Tenant", "quitter")
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)

	if rr.Code != statusClientClosed {
		t.Fatalf("canceled query: status %d (%s), want 499", rr.Code, rr.Body.String())
	}
	var buf bytes.Buffer
	s.met.write(&buf)
	if !strings.Contains(buf.String(), `tenant="quitter",op="pagerank",outcome="canceled"`) {
		t.Fatalf("canceled outcome not recorded:\n%s", buf.String())
	}
	if s.limit.inFlight() != 0 {
		t.Fatalf("%d admission slots leaked after canceled query", s.limit.inFlight())
	}
}

// TestSSSPUnreachableIsNull is the regression test for the empty-200 defect:
// every R-MAT graph has isolated vertices, their distance is +Inf, and JSON
// cannot carry it. The reply must be a non-empty, decodable 200 with null
// exactly where the reference distance is +Inf.
func TestSSSPUnreachableIsNull(t *testing.T) {
	a, err := sparse.RMAT[float64](8, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Config{})
	if err := s.LoadGraph("web", a); err != nil {
		t.Fatal(err)
	}
	const src = 0
	want := algorithms.RefSSSP(a, src)

	// post fails the test on an empty or undecodable body.
	status, _, body := post(t, ts, "/query", "", map[string]any{"graph": "web", "op": "sssp", "source": src})
	if status != http.StatusOK {
		t.Fatalf("sssp status %d: %v", status, body)
	}
	dist, _ := body["dist"].([]any)
	if len(dist) != len(want) {
		t.Fatalf("dist has %d entries, want %d", len(dist), len(want))
	}
	unreachable := 0
	for i, d := range dist {
		if math.IsInf(want[i], 1) {
			unreachable++
			if d != nil {
				t.Fatalf("vertex %d is unreachable but dist = %v, want null", i, d)
			}
		} else if d != want[i] {
			t.Fatalf("vertex %d: dist %v, want %g", i, d, want[i])
		}
	}
	if unreachable == 0 {
		t.Fatal("test graph has no vertex unreachable from the source; pick another seed")
	}
}

// TestWriteJSONEncodeFailureIs500 pins the other half of the fix: a value
// JSON cannot represent must not go out as a 200 with an empty body.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rr := httptest.NewRecorder()
	writeJSON(rr, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("500 body %q is not a JSON error: %v", rr.Body.String(), err)
	}
}

// TestNullableDistMatchesEncodingJSON pins the wire format of the
// allocation-free distance encoder: byte for byte what encoding/json writes
// for the []*float64 it replaced (nil where the distance is +Inf), across the
// 'f'/'e' cut-overs, and an encode error — not a malformed body — for the
// values JSON cannot carry.
func TestNullableDistMatchesEncodingJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -2.5, 3.0000000000000004, 0.1, 1e-6, 9.99e-7, 1e-7, 1.5e-9,
		1e20, 1e21, 1.234e25, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), 42}
	ptrs := make([]*float64, len(vals))
	for i := range vals {
		if !math.IsInf(vals[i], 1) {
			ptrs[i] = &vals[i]
		}
	}
	want, err := json.Marshal(ptrs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(nullableDist(vals))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("nullableDist encodes as\n%s\nencoding/json writes\n%s", got, want)
	}
	if got, err := json.Marshal(nullableDist{}); err != nil || string(got) != "[]" {
		t.Fatalf("empty vector encodes as %q, %v", got, err)
	}
	for _, bad := range []float64{math.Inf(-1), math.NaN()} {
		if _, err := json.Marshal(nullableDist{1, bad}); err == nil {
			t.Fatalf("%v encoded without an error", bad)
		}
	}
}
