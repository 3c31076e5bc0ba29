package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/gb"
	"repro/internal/sparse"
)

// The SSSP state store's tests. Whether a run started warm is read from the
// X-GB-SSSP-Start header and the start-labelled series on /metrics; whether
// it was right, from gb on a context no server uses.

// ssspBody is an sssp query from source.
func ssspBody(graph string, source int) map[string]any {
	return map[string]any{"graph": graph, "op": "sssp", "source": source}
}

// wantStart fails unless r is a 200 reply-cache miss whose run started as
// start says ("warm" or "cold").
func wantStart(t *testing.T, what string, r reply, start string) {
	t.Helper()
	wantCache(t, what, r, "miss")
	if got := r.hdr.Get("X-GB-SSSP-Start"); got != start {
		t.Fatalf("%s: X-GB-SSSP-Start %q, want %q", what, got, start)
	}
}

// refStream mirrors a served graph's mutations on a context of its own.
type refStream struct {
	ctx *gb.Context
	s   *gb.StreamingMatrix[float64]
}

func newRefStream(t *testing.T, a *sparse.CSR[float64]) *refStream {
	t.Helper()
	ctx, err := gb.New(gb.Locales(4), gb.Threads(4))
	if err != nil {
		t.Fatal(err)
	}
	return &refStream{ctx: ctx, s: gb.StreamingMatrixFromCSR(ctx, a)}
}

// upsert applies the same writes to the served graph and the reference, and
// commits an epoch on both.
func (ref *refStream) upsert(t *testing.T, g *graph, rows, cols []int, vals []float64) {
	t.Helper()
	if err := g.mutate(rows, cols, vals, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.s.UpdateBatch(rows, cols, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// check fails unless r's distances are gb's SSSP on the reference's epoch.
func (ref *refStream) check(t *testing.T, what string, r reply, source int) {
	t.Helper()
	m, epoch := ref.s.Matrix()
	if got := r.hdr.Get("X-GB-Epoch"); got != fmt.Sprint(epoch) {
		t.Fatalf("%s: served epoch %s, the reference is at %d", what, got, epoch)
	}
	want, err := libAnswer(ref.ctx, m, "sssp", source)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.differs("sssp", r.body); d != "" {
		t.Fatalf("%s: departs from gb: %s", what, d)
	}
}

// TestSSSPStateWarmAfterLowering: after a flush that only inserts and lowers,
// the next SSSP from a source starts from its last answer — no more rounds
// than the cold run, one when the flush changed nothing, the distances gb's —
// and the start, the rounds and the store's size are on /metrics; after a
// raise the store empties and the next run is cold.
func TestSSSPStateWarmAfterLowering(t *testing.T) {
	s, _ := testServer(t, openTenants)
	g := s.graphByName("g")
	a := sparse.ErdosRenyi[float64](300, 6, 17)
	ref := newRefStream(t, a)
	const src = 5
	cols, vals := a.Row(src)
	if len(cols) == 0 {
		t.Fatal("the source has no out-edges")
	}

	first := query(s, ssspBody("g", src))
	wantStart(t, "the first sssp", first, "cold")
	ref.check(t, "the first sssp", first, src)
	nine := query(s, ssspBody("g", 9))
	wantStart(t, "another source", nine, "cold")
	if r := query(s, ssspBody("g", src)); r.hdr.Get("X-GB-Cache") != "hit" || r.hdr.Get("X-GB-SSSP-Start") != "" {
		t.Fatalf("the repeat: X-GB-Cache %q, X-GB-SSSP-Start %q (a hit runs nothing)", r.hdr.Get("X-GB-Cache"), r.hdr.Get("X-GB-SSSP-Start"))
	}

	// Lower the source's first out-edge and insert two weight-1 edges.
	ref.upsert(t, g, []int{src, 40, 41}, []int{cols[0], 200, 17}, []float64{vals[0] - 0.5, 1, 1})
	second := query(s, ssspBody("g", src))
	wantStart(t, "the sssp after a lowering flush", second, "warm")
	ref.check(t, "the sssp after a lowering flush", second, src)
	if r1, r2 := first.body["rounds"].(float64), second.body["rounds"].(float64); r2 > r1 {
		t.Fatalf("the warm run took %v rounds, the cold one %v", r2, r1)
	}
	// A flush that rewrites an edge with its own weight changes nothing: the
	// warm run confirms the answer in one round.
	ref.upsert(t, g, []int{40}, []int{200}, []float64{1})
	unchanged := query(s, ssspBody("g", src))
	wantStart(t, "the sssp after a flush that changed nothing", unchanged, "warm")
	ref.check(t, "the sssp after a flush that changed nothing", unchanged, src)
	if r := unchanged.body["rounds"]; r != 1.0 {
		t.Fatalf("the warm run over an unchanged graph took %v rounds, want 1", r)
	}
	for name, want := range map[string]float64{
		`gbserve_sssp_runs_total{start="cold"}`:   2,
		`gbserve_sssp_runs_total{start="warm"}`:   2,
		`gbserve_sssp_rounds_total{start="warm"}`: second.body["rounds"].(float64) + 1,
		`gbserve_sssp_rounds_total{start="cold"}`: first.body["rounds"].(float64) + nine.body["rounds"].(float64),
		`gbserve_sssp_states{graph="g"}`:          2,
		`gbserve_sssp_state_bytes{graph="g"}`:     2 * 8 * 300,
	} {
		if got := metricValue(t, s, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// A raise: no held state bounds the distances any more.
	ref.upsert(t, g, []int{src}, []int{cols[0]}, []float64{vals[0] + 20})
	third := query(s, ssspBody("g", src))
	wantStart(t, "the sssp after a raise", third, "cold")
	ref.check(t, "the sssp after a raise", third, src)
	if n := metricValue(t, s, `gbserve_sssp_states{graph="g"}`); n != 1 {
		t.Fatalf("%v states after the raise's first run, want only its own", n)
	}
	// The raise emptied the store: source 9's state went with it.
	ref.upsert(t, g, []int{42}, []int{43}, []float64{1})
	wantStart(t, "source 9 after the raise", query(s, ssspBody("g", 9)), "cold")
	r := query(s, ssspBody("g", src))
	wantStart(t, "the source after an insert that followed the raise", r, "warm")
	ref.check(t, "the source after an insert that followed the raise", r, src)
}

// TestSSSPStateBypass: a chaos sssp neither reads nor fills the store, and a
// run on a stale snapshot starts cold and stores nothing even when the store
// holds a state that could seed it.
func TestSSSPStateBypass(t *testing.T) {
	s, _ := testServer(t, openTenants)
	g := s.graphByName("g")
	chaos := ssspBody("g", 4)
	chaos["chaos_seed"] = 2
	r := query(s, chaos)
	if r.code != http.StatusOK || r.hdr.Get("X-GB-SSSP-Start") != "" || r.hdr.Get("X-GB-Cache") != "" {
		t.Fatalf("chaos sssp: status %d, X-GB-SSSP-Start %q, X-GB-Cache %q", r.code, r.hdr.Get("X-GB-SSSP-Start"), r.hdr.Get("X-GB-Cache"))
	}
	if n, _ := g.states.stats(); n != 0 {
		t.Fatalf("a chaos query stored %d states", n)
	}
	if got := metricValue(t, s, `gbserve_sssp_runs_total{start="cold"}`); got != 0 {
		t.Fatalf("a chaos run counted as %v fault-free runs", got)
	}

	wantStart(t, "a fault-free sssp", query(s, ssspBody("g", 4)), "cold")
	held := g.states.get(4)
	if held == nil {
		t.Fatal("the fault-free run stored no state")
	}
	r = query(s, chaos)
	if r.code != http.StatusOK || r.hdr.Get("X-GB-SSSP-Start") != "" {
		t.Fatalf("chaos sssp beside a held state: status %d, X-GB-SSSP-Start %q", r.code, r.hdr.Get("X-GB-SSSP-Start"))
	}

	// No test at this layer forces a stale flush, so the stale snapshot is the
	// response's flag, set as deriveQuery would set it.
	m, _ := g.stream.Matrix()
	resp := &queryResponse{Stale: true}
	if err := s.runSSSP(g, m, 4, resp); err != nil {
		t.Fatal(err)
	}
	if resp.ssspStart != "cold" || g.states.get(4) != held {
		t.Fatalf("stale run: start %q, state replaced %v", resp.ssspStart, g.states.get(4) != held)
	}
	fresh := &queryResponse{}
	if err := s.runSSSP(g, m, 4, fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.ssspStart != "warm" {
		t.Fatalf("the same run on a fresh snapshot started %q: the held state was usable", fresh.ssspStart)
	}
}

// TestSSSPStateStoreOrder: a state from a later epoch stays over an earlier
// one of its source; a later run (a raise merged since) empties the store; a
// state from an earlier run is dropped.
func TestSSSPStateStoreOrder(t *testing.T) {
	s, _ := testServer(t, Config{})
	g := s.graphByName("g")
	refresh := func(source int) *gb.SSSPState[float64] {
		t.Helper()
		m, _ := g.stream.Matrix()
		st, err := gb.IncrementalSSSP(m, source, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	step := func(v float64) {
		t.Helper()
		if err := g.mutate([]int{3}, []int{7}, []float64{v}, nil, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.flush(); err != nil {
			t.Fatal(err)
		}
	}
	c := newSSSPStates()
	at0 := refresh(1)
	step(0.5) // an insert or a lowering of (3, 7): the same run
	at1, other1 := refresh(1), refresh(2)
	c.put(at1)
	c.put(at0)
	c.put(other1)
	if n, _ := c.stats(); n != 2 || c.get(1) != at1 {
		t.Fatalf("%d states, source 1's at epoch %d: want 2, and the epoch-1 one", n, c.get(1).Epoch)
	}
	step(50) // a raise: the next run
	at2 := refresh(1)
	c.put(at2)
	if n, bytes := c.stats(); n != 1 || c.get(1) != at2 || bytes != stateBytes(at2) {
		t.Fatalf("after a later run's state: %d states of %d bytes", n, bytes)
	}
	c.put(other1)
	if c.get(2) != nil {
		t.Fatal("a state of an earlier run was kept")
	}
}

// TestSSSPStateCap: under a small cap the store evicts and never holds more
// than the cap, a state over an eighth of it is not kept, and every reply is
// still gb's.
func TestSSSPStateCap(t *testing.T) {
	s, _ := testServer(t, openTenants)
	g := s.graphByName("g")
	ref := newRefStream(t, sparse.ErdosRenyi[float64](300, 6, 17))
	const perState = 8 * 300
	g.states.max = 8*perState + 100 // room for eight
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			ref.upsert(t, g, []int{0}, []int{1}, []float64{1})
		}
		for src := 0; src < 20; src++ {
			r := query(s, ssspBody("g", src))
			ref.check(t, fmt.Sprintf("pass %d source %d (%s)", pass, src, r.hdr.Get("X-GB-SSSP-Start")), r, src)
			if held := metricValue(t, s, `gbserve_sssp_state_bytes{graph="g"}`); held > float64(g.states.max) {
				t.Fatalf("the store holds %v bytes, cap %d", held, g.states.max)
			}
		}
	}
	if n, _ := g.states.stats(); n != 8 {
		t.Fatalf("%d states under a cap of eight", n)
	}
	// A warm run needs a state that survived the evictions of the runs before
	// it: at most the eight held when the second pass began.
	if warm := metricValue(t, s, `gbserve_sssp_runs_total{start="warm"}`); warm > 8 {
		t.Fatalf("%v warm runs in the second pass, with eight states held", warm)
	}
	g.states.max = 8*perState - 8 // one state is now over an eighth
	wantStart(t, "a source with no state", query(s, ssspBody("g", 100)), "cold")
	if g.states.get(100) != nil {
		t.Fatal("a state over an eighth of the cap was kept")
	}
}

// TestMutateFlushRejectedBatchStagesNothing: a /mutate whose update batch is
// valid but one of whose deletes is out of range is refused whole — nothing
// is pending and the next flush commits no epoch — and so is one whose
// deletes are valid but one update is not.
func TestMutateFlushRejectedBatchStagesNothing(t *testing.T) {
	s, _ := testServer(t, Config{})
	g := s.graphByName("g")
	for what, body := range map[string]map[string]any{
		"a bad delete after good ones": {
			"rows": []int{0, 1}, "cols": []int{1, 2}, "vals": []float64{9, 9},
			"del_rows": []int{3, 300}, "del_cols": []int{4, 0},
		},
		"a bad update beside good deletes": {
			"rows": []int{0, 1}, "cols": []int{1, -2}, "vals": []float64{9, 9},
			"del_rows": []int{3}, "del_cols": []int{4},
		},
	} {
		buf, _ := json.Marshal(body)
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/graphs/g/mutate", bytes.NewReader(buf)))
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", what, rr.Code, rr.Body.String())
		}
		if n := g.stream.Pending(); n != 0 {
			t.Fatalf("%s: refused with %d mutations left pending", what, n)
		}
		if epoch, _, err := g.flush(); err != nil || epoch != 0 {
			t.Fatalf("%s: the next flush committed epoch %d (%v), want still 0", what, epoch, err)
		}
	}
	if err := g.mutate([]int{0}, []int{1}, []float64{9}, []int{2}, []int{3}); err != nil {
		t.Fatal(err)
	}
	if epoch, _, err := g.flush(); err != nil || epoch != 1 {
		t.Fatalf("a valid batch: flush committed epoch %d (%v), want 1", epoch, err)
	}
}
