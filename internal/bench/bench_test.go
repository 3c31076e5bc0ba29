package bench

import (
	"strings"
	"testing"
)

// All shape tests run at ScaleSmall; the model's scaling shapes do not depend
// on the absolute sizes.

// skipShort skips workload-heavy figure regenerations under -short.
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping heavy figure regeneration in -short mode")
	}
}

// runFig runs a figure and fails the test on error.
func runFig(t *testing.T, r Runner) Figure {
	t.Helper()
	f, err := r(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 27 {
		t.Fatalf("registry has %d figures, want 27", len(reg))
	}
	for _, e := range reg {
		if Lookup(e.ID) == nil {
			t.Errorf("Lookup(%q) failed", e.ID)
		}
	}
	if Lookup("FIG1L") == nil {
		t.Error("lookup should be case-insensitive")
	}
	if Lookup("nope") != nil {
		t.Error("unknown id should return nil")
	}
}

func TestFig1LeftShape(t *testing.T) {
	skipShort(t)
	f := runFig(t, Fig1Left)
	// Both variants scale near-linearly in shared memory.
	for _, s := range []string{"Apply1", "Apply2"} {
		t1, ok1 := f.Get(s, 1)
		t32, ok32 := f.Get(s, 32)
		if !ok1 || !ok32 {
			t.Fatalf("%s: missing points", s)
		}
		if sp := t1 / t32; sp < 10 {
			t.Errorf("%s shared-memory speedup at 32 threads = %.1f, want near-linear", s, sp)
		}
	}
}

func TestFig1RightShape(t *testing.T) {
	skipShort(t)
	f := runFig(t, Fig1Right)
	// Apply1 is orders of magnitude slower and does not scale; Apply2 scales.
	a1, _ := f.Get("Apply1", 64)
	a2, _ := f.Get("Apply2", 64)
	if a1 < 100*a2 {
		t.Errorf("Apply1 (%.3fs) should be >>100x Apply2 (%.6fs) at 64 nodes", a1, a2)
	}
	// At the small test scale the per-locale work shrinks to where launch
	// overheads bite (the paper's own point about insufficient work), so the
	// bound here is modest; the paper-scale run shows the full scaling.
	a2n1, _ := f.Get("Apply2", 1)
	if a2n1/a2 < 2.5 {
		t.Errorf("Apply2 1->64 node speedup = %.1f, want scaling", a2n1/a2)
	}
	a1n2, _ := f.Get("Apply1", 2)
	if a1 < a1n2/4 {
		t.Errorf("Apply1 should not meaningfully scale: %.3fs @2 vs %.3fs @64", a1n2, a1)
	}
}

func TestFig2Shape(t *testing.T) {
	l := runFig(t, Fig2Left)
	a1, _ := l.Get("Assign1", 1)
	a2, _ := l.Get("Assign2", 1)
	if r := a1 / a2; r < 5 || r > 40 {
		t.Errorf("shared Assign1/Assign2 at 1 thread = %.1fx, want ~10x", r)
	}
	// Both get a 5-8x-ish speedup on 24-32 threads.
	for _, s := range []string{"Assign1", "Assign2"} {
		t1, _ := l.Get(s, 1)
		t32, _ := l.Get(s, 32)
		if sp := t1 / t32; sp < 3 || sp > 14 {
			t.Errorf("%s speedup at 32 threads = %.1f, want the paper's modest 5-8x", s, sp)
		}
	}
	r := runFig(t, Fig2Right)
	d1, _ := r.Get("Assign1", 16)
	d2, _ := r.Get("Assign2", 16)
	if d1 < 20*d2 {
		t.Errorf("distributed Assign1 (%.3fs) should be >>20x Assign2 (%.6fs)", d1, d2)
	}
}

func TestFig3Shape(t *testing.T) {
	skipShort(t)
	f := runFig(t, Fig3)
	series := f.SeriesOf()
	if len(series) != 2 {
		t.Fatalf("series = %v", series)
	}
	big := series[1] // 10M at small scale
	t1, _ := f.Get(big, 1)
	t64, _ := f.Get(big, 64)
	if t1/t64 < 5 {
		t.Errorf("big Assign2 1->64 speedup = %.1f, want scaling", t1/t64)
	}
	small := series[0]
	s1, _ := f.Get(small, 1)
	s64, _ := f.Get(small, 64)
	if s1/s64 > t1/t64 {
		t.Errorf("small vector should scale worse than big (%.1f vs %.1f)", s1/s64, t1/t64)
	}
}

func TestFig4Shape(t *testing.T) {
	skipShort(t)
	f := runFig(t, Fig4)
	series := f.SeriesOf()
	if len(series) != 3 {
		t.Fatalf("series = %v", series)
	}
	// Largest series gets the paper's ~13x; smallest does not scale well.
	big := series[2]
	t1, _ := f.Get(big, 1)
	t24plus, _ := f.Get(big, 32)
	if sp := t1 / t24plus; sp < 8 || sp > 25 {
		t.Errorf("big eWiseMult speedup = %.1f, want ~13x", sp)
	}
	small := series[0]
	s1, _ := f.Get(small, 1)
	s32, _ := f.Get(small, 32)
	if sp := s1 / s32; sp > 8 {
		t.Errorf("small eWiseMult speedup = %.1f; should be overhead-bound", sp)
	}
}

func TestFig5Shape(t *testing.T) {
	skipShort(t)
	b := runFig(t, Fig5AllThreads)
	series := b.SeriesOf()
	big := series[1]
	t1, _ := b.Get(big, 1)
	t32, _ := b.Get(big, 32)
	if t1/t32 < 8 {
		t.Errorf("big distributed eWiseMult 1->32 = %.1fx, want >16x-ish scaling", t1/t32)
	}
	small := series[0]
	s1, _ := b.Get(small, 1)
	s64, _ := b.Get(small, 64)
	if s1/s64 > 10 {
		t.Errorf("small distributed eWiseMult scaled %.1fx; insufficient work should cap it", s1/s64)
	}
	// 1-thread-per-node variant exists and is slower at 1 node than 24t.
	a := runFig(t, Fig5OneThread)
	a1, _ := a.Get(big, 1)
	b1, _ := b.Get(big, 1)
	if a1 <= b1 {
		t.Errorf("1 thread/node (%.3fs) should be slower than 24 (%.3fs)", a1, b1)
	}
}

func TestFig7Shape(t *testing.T) {
	f := runFig(t, Fig7(0))
	// Sorting dominates at every thread count (paper's main observation) on
	// both f=2% workloads.
	for _, fig := range []Figure{f, runFig(t, Fig7(1))} {
		for _, th := range []int{1, 32} {
			spa, _ := fig.Get("SPA", th)
			srt, _ := fig.Get("Sorting", th)
			out, _ := fig.Get("Output", th)
			if srt <= spa || srt <= out {
				t.Errorf("%s th=%d: sorting (%.4fs) should dominate SPA (%.4fs) and Output (%.4fs)",
					fig.ID, th, srt, spa, out)
			}
		}
	}
	// The denser-vector workload (f=20%) has more work than f=2%.
	fc := runFig(t, Fig7(2))
	t0, _ := f.Get("SPA", 1)
	t2, _ := fc.Get("SPA", 1)
	if t2 < t0 {
		t.Errorf("f=20%% workload (%.4fs) should exceed f=2%% (%.4fs)", t2, t0)
	}
}

func TestFig8Shape(t *testing.T) {
	f := runFig(t, Fig8(0))
	l1, _ := f.Get("Local Multiply", 1)
	l64, _ := f.Get("Local Multiply", 64)
	if l1/l64 < 10 {
		t.Errorf("local multiply 1->64 speedup = %.1f, want substantial (paper: 43x)", l1/l64)
	}
	// Gather explodes going multi-node and dominates at 64 nodes on every
	// workload of the figure.
	for _, fig := range []Figure{f, runFig(t, Fig8(1)), runFig(t, Fig8(2))} {
		g1, _ := fig.Get("Gather Input", 1)
		g64, _ := fig.Get("Gather Input", 64)
		l64, _ := fig.Get("Local Multiply", 64)
		if g64 < 100*g1 {
			t.Errorf("%s: gather should explode going multi-node: %.6fs -> %.4fs", fig.ID, g1, g64)
		}
		if g64 < l64 {
			t.Errorf("%s: gather (%.4fs) should dominate local multiply (%.4fs) at 64 nodes", fig.ID, g64, l64)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	skipShort(t)
	// Same qualitative story at the larger scale, on every workload. Under
	// -race only the d=4 workload runs: the other two take the same code
	// path, and at the race detector's speed they would add two minutes.
	for i := range fig9Configs {
		if raceEnabled && i != 1 {
			continue
		}
		f := runFig(t, Fig9(i))
		g64, _ := f.Get("Gather Input", 64)
		l64, _ := f.Get("Local Multiply", 64)
		if g64 < l64 {
			t.Errorf("%s: gather (%.4fs) should dominate local multiply (%.4fs)", f.ID, g64, l64)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	f := runFig(t, Fig10)
	// Assign1 degrades by orders of magnitude with oversubscription; Assign2
	// stays flat (and fast).
	a1at32, _ := f.Get("Assign1", 32)
	a2at32, _ := f.Get("Assign2", 32)
	if a1at32 < 100*a2at32 {
		t.Errorf("Assign1 (%.3fs) should be >>100x Assign2 (%.6fs) at 32 locales", a1at32, a2at32)
	}
	a1at2, _ := f.Get("Assign1", 2)
	if a1at32 < 5*a1at2 {
		t.Errorf("Assign1 should degrade with locale count: %.3fs @2 vs %.3fs @32", a1at2, a1at32)
	}
	a2at1, _ := f.Get("Assign2", 1)
	if a2at32 > 20*a2at1 && a2at32 > 0.1 {
		t.Errorf("Assign2 should stay flat-ish: %.6fs @1 vs %.6fs @32", a2at1, a2at32)
	}
}

func TestTableAndCSVRendering(t *testing.T) {
	f := runFig(t, Fig10)
	tbl := f.Table()
	if !strings.Contains(tbl, "Assign1") || !strings.Contains(tbl, "locales") {
		t.Error("table rendering incomplete")
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "figure,series,x,seconds\n") {
		t.Error("csv header missing")
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != len(f.Points)+1 {
		t.Error("csv row count wrong")
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		2.5:     "2.500 s",
		0.0031:  "3.100 ms",
		42e-6:   "42.000 us",
		250e-12: "0.2 ns",
	}
	for in, want := range cases {
		if got := formatSeconds(in); got != want {
			t.Errorf("formatSeconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestAblationGatherShape(t *testing.T) {
	skipShort(t)
	f := runFig(t, AblGather)
	// Bulk-synchronous communication should beat fine-grained at scale — the
	// paper's recommendation quantified.
	fine, _ := f.Get("fine-grained", 64)
	bulk, _ := f.Get("bulk-synchronous", 64)
	if bulk >= fine {
		t.Errorf("bulk (%.4fs) should beat fine-grained (%.4fs) at 64 nodes", bulk, fine)
	}
	if fine < 3*bulk {
		t.Errorf("expected a substantial gap at 64 nodes: fine=%.4fs bulk=%.4fs", fine, bulk)
	}
}

func TestAblationSortShape(t *testing.T) {
	f := runFig(t, AblSort)
	m, _ := f.Get("merge sort", 32)
	r, _ := f.Get("radix sort", 32)
	if r >= m {
		t.Errorf("radix (%.4fs) should beat merge (%.4fs)", r, m)
	}
}

func TestAblationAtomicShape(t *testing.T) {
	skipShort(t)
	f := runFig(t, AblAtomic)
	a, _ := f.Get("atomic", 32)
	n, _ := f.Get("no-atomic", 32)
	if n >= a {
		t.Errorf("no-atomic (%.4fs) should beat atomic (%.4fs) at 32 threads", n, a)
	}
	// At one thread they are nearly the same (no contention to remove).
	a1, _ := f.Get("atomic", 1)
	n1, _ := f.Get("no-atomic", 1)
	if n1 > a1*1.1 || a1 > n1*1.2 {
		t.Errorf("1-thread times should be close: atomic=%.4fs no-atomic=%.4fs", a1, n1)
	}
}

func TestAblationGridShape(t *testing.T) {
	skipShort(t)
	f := runFig(t, AblGrid)
	// The 2-D grid should beat at least one of the 1-D extremes at 64 nodes
	// (the paper's cited motivation for 2-D distributions).
	two, _ := f.Get("2-D grid", 64)
	rows, _ := f.Get("1-D rows", 64)
	cols, _ := f.Get("1-D cols", 64)
	if two > rows && two > cols {
		t.Errorf("2-D (%.4fs) should not lose to both 1-D rows (%.4fs) and cols (%.4fs)",
			two, rows, cols)
	}
}

func TestAblationFuseShape(t *testing.T) {
	skipShort(t)
	f := runFig(t, AblFuse)
	// Fused regions plan the frontier chain's collectives once per round, so
	// BFS and SSSP are strictly faster at every locale count; PageRank and CC
	// fuse only uncharged update loops, so their modeled times never worsen.
	for _, p := range localeSweep {
		for _, alg := range []string{"bfs", "sssp"} {
			e, ok1 := f.Get(alg+" eager", p)
			fu, ok2 := f.Get(alg+" fused", p)
			if !ok1 || !ok2 {
				t.Fatalf("%s: missing points at p=%d", alg, p)
			}
			if fu >= e {
				t.Errorf("%s at p=%d: fused (%.4fs) should beat eager (%.4fs)", alg, p, fu, e)
			}
		}
		for _, alg := range []string{"pagerank", "cc"} {
			e, _ := f.Get(alg+" eager", p)
			fu, _ := f.Get(alg+" fused", p)
			if fu > e {
				t.Errorf("%s at p=%d: fused (%.4fs) regressed past eager (%.4fs)", alg, p, fu, e)
			}
		}
	}
}

func TestChartRendering(t *testing.T) {
	f := runFig(t, Fig10)
	chart := f.Chart()
	if !strings.Contains(chart, "Assign1") || !strings.Contains(chart, "locales") {
		t.Error("chart legend/axis missing")
	}
	if !strings.Contains(chart, "*") {
		t.Error("chart has no data glyphs")
	}
	empty := Figure{ID: "none"}
	if !strings.Contains(empty.Chart(), "no data") {
		t.Error("empty figure should render a placeholder")
	}
}

func TestChaosModeSlowsFiguresDeterministically(t *testing.T) {
	total := func(f Figure) float64 {
		var s float64
		for _, p := range f.Points {
			s += p.Seconds
		}
		return s
	}
	clean := runFig(t, Fig8(0))
	// Seed 2: the standard plan's delay/stall draws land inside this figure's
	// transfer sequence (seed 1 happens to miss every draw — determinism cuts
	// both ways).
	EnableChaos(2)
	defer func() { chaos = nil }()
	chaotic := runFig(t, Fig8(0))
	if total(chaotic) <= total(clean) {
		t.Errorf("chaos figure total %.6fs should exceed fault-free %.6fs",
			total(chaotic), total(clean))
	}
	// Same seed, same plan, same fault sequence: the run is reproducible.
	again := runFig(t, Fig8(0))
	if total(again) != total(chaotic) {
		t.Errorf("chaos runs differ under one seed: %.9fs vs %.9fs",
			total(again), total(chaotic))
	}
}
