package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/sparse"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: %g", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty slice must give NaN")
	}
	// 1000 samples leave exactly ten beyond p99.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if got := percentile(big, 99); got != 989 {
		t.Errorf("p99 of 0..999 = %g, want 989", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
	q1, q2, q3 = quartiles([]float64{30, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 30 {
		t.Errorf("quartiles(10,20,30) = %g %g %g", q1, q2, q3)
	}
}

func TestSliceRates(t *testing.T) {
	sec := time.Second
	// 10 events/s for 4 s, completions every 100 ms starting at 100 ms.
	var ends []time.Duration
	for i := 1; i <= 40; i++ {
		ends = append(ends, time.Duration(i)*100*time.Millisecond)
	}
	rates := sliceRates(ends, 4*sec, 2*sec)
	if len(rates) != 2 || math.Abs(rates[0]-10) > 1e-9 || math.Abs(rates[1]-10) > 1e-9 {
		t.Errorf("steady 10/s: %v", rates)
	}
	// A stall in the second slice halves its rate; the median of three
	// slices ignores it.
	ends = ends[:0]
	for i := 1; i <= 60; i++ {
		if i > 20 && i <= 40 && i%2 == 1 {
			continue
		}
		ends = append(ends, time.Duration(i)*100*time.Millisecond)
	}
	rates = sliceRates(ends, 6*sec, 2*sec)
	if len(rates) != 3 || math.Abs(rates[1]-5) > 1e-9 || math.Abs(median(rates)-10) > 1e-9 {
		t.Errorf("stalled middle slice: %v", rates)
	}
	// A tail shorter than half a slice is dropped, a longer one kept.
	if got := len(sliceRates(ends, 4500*time.Millisecond, 2*sec)); got != 2 {
		t.Errorf("short tail: %d slices", got)
	}
	if got := len(sliceRates(ends, 5*sec, 2*sec)); got != 3 {
		t.Errorf("long tail: %d slices", got)
	}
	// A window shorter than a slice is one slice.
	if got := sliceRates(ends[:10], sec, 2*sec); len(got) != 1 || math.Abs(got[0]-10) > 1e-9 {
		t.Errorf("1-s window: %v", got)
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (gb serve) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 5 0 100 1000 200 18446744073709551615"
	cpu, err := parseProcStatCPU(stat)
	if err != nil || cpu != 3*time.Second {
		t.Errorf("cpu = %v, %v; want 3s", cpu, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("garbage stat accepted")
	}
	m := parseMetrics("# HELP x\ngbserve_query_seconds_sum{tenant=\"a\"} 1.5\ngbserve_query_seconds_sum{tenant=\"b\"} 0.5\ngbserve_batch_runs_total 7\n")
	if m["gbserve_query_seconds_sum"] != 2 || m["gbserve_batch_runs_total"] != 7 {
		t.Errorf("parseMetrics = %v", m)
	}
}

// fakeGraphs is a two-vertex graph pair for the checker tests.
func fakeGraphs() []*serveGraph {
	a, _ := sparse.CSRFromTriplets(2, 2, []int{0, 1}, []int{1, 0}, []float64{1, 1})
	return []*serveGraph{{name: "hot", a: a, sources: []int{0}}, {name: "web", a: a, sources: []int{0}}}
}

func TestCheckReplyRejectsBadReplies(t *testing.T) {
	gs := fakeGraphs()
	q := newQuery(gs, 0, "bfs", 0)
	good := `{"graph":"hot","op":"bfs","epoch":3,"levels":[0,1]}`
	if _, err := checkReply(&q, "hot", 2, 200, "3", []byte(good)); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	sssp := newQuery(gs, 0, "sssp", 0)
	for name, c := range map[string]struct {
		q      *query
		status int
		epoch  string
		body   string
	}{
		"empty 200 body":       {&sssp, 200, "3", ""},
		"blank 200 body":       {&sssp, 200, "3", "\n"},
		"truncated json":       {&q, 200, "3", good[:len(good)-5]},
		"short vector":         {&q, 200, "3", `{"graph":"hot","op":"bfs","epoch":3,"levels":[0]}`},
		"missing vector":       {&sssp, 200, "3", `{"graph":"hot","op":"sssp","epoch":3}`},
		"source not at zero":   {&q, 200, "3", `{"graph":"hot","op":"bfs","epoch":3,"levels":[1,0]}`},
		"wrong graph echoed":   {&q, 200, "3", `{"graph":"web","op":"bfs","epoch":3,"levels":[0,1]}`},
		"wrong op echoed":      {&q, 200, "3", `{"graph":"hot","op":"cc","epoch":3,"levels":[0,1]}`},
		"epoch header differs": {&q, 200, "4", good},
		"shed":                 {&q, 429, "", `{"error":"shed: service at capacity"}`},
		"server error":         {&q, 500, "", `{"error":"boom"}`},
	} {
		if _, err := checkReply(c.q, "hot", 2, c.status, c.epoch, []byte(c.body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFullCheckRejectsWrongAnswers(t *testing.T) {
	gs := fakeGraphs()
	ref := newGraphRef(gs[0].a)
	q := newQuery(gs, 0, "bfs", 0)
	if err := fullCheck(&q, &reply{Levels: []int64{0, 1}, Parents: []int64{-1, 0}}, ref); err != nil {
		t.Errorf("right bfs rejected: %v", err)
	}
	if err := fullCheck(&q, &reply{Levels: []int64{0, 2}}, ref); err == nil {
		t.Error("wrong level accepted")
	}
	if err := fullCheck(&q, &reply{Levels: []int64{0, 1}, Parents: []int64{-1, 1}}, ref); err == nil {
		t.Error("invalid parent accepted")
	}
	cc := newQuery(gs, 0, "cc", 0)
	if err := fullCheck(&cc, &reply{Labels: []int64{0, 1}}, ref); err == nil {
		t.Error("wrong labels accepted")
	}
	pr := newQuery(gs, 0, "pagerank", 0)
	if err := fullCheck(&pr, &reply{Ranks: []float64{0.5, 0.5}}, ref); err != nil {
		t.Errorf("right ranks rejected: %v", err)
	}
	if err := fullCheck(&pr, &reply{Ranks: []float64{0.6, 0.4}}, ref); err == nil {
		t.Error("wrong ranks accepted")
	}
}

// TestOpenLoopTimesFromDueInstants drives the open loop against a stand-in
// server whose first reply stalls: with one sender the following requests
// start late, and their latency must count from when they were due.
func TestOpenLoopTimesFromDueInstants(t *testing.T) {
	const stall = 120 * time.Millisecond
	first := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first {
			first = false
			time.Sleep(stall)
		}
		w.Header().Set("X-GB-Epoch", "0")
		fmt.Fprint(w, `{"graph":"hot","op":"bfs","epoch":0,"levels":[0,1]}`)
	}))
	defer ts.Close()
	done := make(chan struct{})
	close(done)
	gs := fakeGraphs()
	s := &session{srv: &server{base: ts.URL, client: ts.Client(), done: done}, graphs: gs}
	qs := make([]query, 6)
	for i := range qs {
		qs[i] = newQuery(gs, 0, "bfs", 0)
	}
	const rate = 50.0 // one request every 20 ms
	out := s.openLoop(context.Background(), qs, rate, 1)
	if len(out) != len(qs) {
		t.Fatalf("%d samples, want %d", len(out), len(qs))
	}
	for k, smp := range out {
		if smp.err != nil {
			t.Fatalf("sample %d: %v", k, smp.err)
		}
		if want := time.Duration(k) * 20 * time.Millisecond; smp.due != want {
			t.Errorf("sample %d due at %v, want %v", k, smp.due, want)
		}
		if smp.start < smp.due {
			t.Errorf("sample %d sent %v before it was due", k, smp.due-smp.start)
		}
	}
	if lat := out[0].end - out[0].due; lat < stall {
		t.Errorf("stalled request: latency %v < stall %v", lat, stall)
	}
	// Request 1 was due at 20 ms but the only sender was busy until ~120 ms:
	// it must be reported late, and its latency must include that wait.
	late := out[1].start - out[1].due
	if late < stall-40*time.Millisecond {
		t.Errorf("request 1 reported %v late, want about %v", late, stall-20*time.Millisecond)
	}
	if lat := out[1].end - out[1].due; lat < late {
		t.Errorf("request 1: latency %v does not include its lateness %v", lat, late)
	}
}

func TestWriteScheduleIsDeterministic(t *testing.T) {
	a := genBatches(64, 8, 5)
	b := genBatches(64, 8, 5)
	for i := range a {
		if string(a[i].body) != string(b[i].body) {
			t.Fatalf("batch %d differs between two generations of one seed", i)
		}
	}
	base := sparse.ErdosRenyi[float64](64, 4, 1)
	eg := &epochGraphs{base: base, batches: a, refs: map[uint64]*graphRef{}}
	r1, err := eg.at(1)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1 is the base plus the first flushEvery batches, weight 1.
	for _, wb := range a[:flushEvery] {
		for k := range wb.rows {
			if v, ok := r1.a.Get(wb.rows[k], wb.cols[k]); !ok || v != 1 {
				t.Fatalf("edge %d->%d missing at epoch 1", wb.rows[k], wb.cols[k])
			}
		}
	}
	if _, err := eg.at(3); err == nil {
		t.Error("epoch beyond the schedule accepted")
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// A child started by startPlaced runs on serverCPU alone, and the thread that
// forked it is back where it was.
func TestStartPlacedPinsTheChild(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before, err := getAffinity(0)
	if err != nil {
		t.Fatal(err)
	}
	cpu := -1
	for c := 64*len(before) - 1; c >= 0 && cpu < 0; c-- {
		if before[c/64]&(1<<(c%64)) != 0 {
			cpu = c
		}
	}
	if before == maskOf(cpu) {
		t.Skip("one CPU: nothing to place")
	}
	serverCPU = cpu
	defer func() { serverCPU = -1 }()
	cmd := exec.Command("sleep", "5")
	if err := startPlaced(cmd); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	if got, err := getAffinity(cmd.Process.Pid); err != nil || got != maskOf(cpu) {
		t.Errorf("child's mask is %v (%v), want CPU %d only", got[0], err, cpu)
	}
	if after, _ := getAffinity(0); after != before {
		t.Errorf("forking thread's mask is %v after the fork, was %v", after[0], before[0])
	}
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	key := func(d metricDef) string { return fmt.Sprintf("%s|%s|%s|%g", d.Name, d.Unit, d.Better, d.Bound) }
	compare := func(what string, got, want []metricDef) {
		var g, w []string
		for _, d := range got {
			g = append(g, key(d))
		}
		for _, d := range want {
			w = append(w, key(d))
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: bad name or unit in %+v", what, d)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s: better = %q", what, d.Name, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("%s: name %s used twice", what, d.Name)
			}
			seen[d.Name] = true
		}
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Errorf("%s: BENCHMARK.json and the registry differ:\njson:\n%s\nregistry:\n%s", what, strings.Join(g, "\n"), strings.Join(w, "\n"))
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	hasSetup := false
	for _, d := range endToEnd {
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) missing from the end-to-end metrics")
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
}

// TestSmoke runs every workload for one second, end to end, against the real
// gbserve binary, and one traced run (skipped with -short), which must set
// every per-layer metric.
func TestSmoke(t *testing.T) {
	bin, err := buildGbserve(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{seed: 7, seconds: time.Second, setups: 1, gbserve: bin, outdir: t.TempDir(), nproc: runtime.GOMAXPROCS(0)}
	check := func(t *testing.T, cfg runConfig, defs []metricDef) {
		res, err := runOne(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) {
				t.Errorf("%s: %+v (present %t)", d.Name, v, ok)
			}
			if d.Bound > 0 && v.Value <= 0 {
				t.Errorf("%s = %g: an end-to-end metric is never 0", d.Name, v.Value)
			}
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("result does not marshal: %v", err)
		}
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			c := cfg
			c.workload = w
			check(t, c, endToEnd)
		})
	}
	t.Run("traced", func(t *testing.T) {
		if testing.Short() {
			t.Skip("the traced run visits every section; skipped with -short")
		}
		c := cfg
		c.workload, c.trace = "lib-dist", true
		check(t, c, perLayer)
		if _, err := os.Stat(c.outdir + "/trace-lib-dist.json"); err != nil {
			t.Errorf("trace file: %v", err)
		}
	})
}
