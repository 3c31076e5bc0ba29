package gb

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// strategyScenario builds a context from opts, loads the graph, and runs the
// three algorithm families that exercise all three dispatch axes — BFS
// (comm), direction-optimizing BFS (dir), SSSP (place, which SpMV records as
// its one gather) — returning the inspector's decision table.
func strategyScenario(t *testing.T, g *sparse.CSR[int64], opts ...Option) string {
	t.Helper()
	ctx, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	a := MatrixFromCSR(ctx, g)
	if _, err := BFS(ctx, a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := BFSDirectionOptimizing(a, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SSSP(a, 0); err != nil {
		t.Fatal(err)
	}
	return ctx.StrategyTable()
}

// TestStrategyDecisionTableGolden pins the exact dispatch sequence of each
// configuration: same graph + same seed must reproduce the same decisions,
// byte for byte, across runs and refactors. Regenerate with -update after an
// intentional cost-model change.
func TestStrategyDecisionTableGolden(t *testing.T) {
	er := sparse.ErdosRenyi[int64](400, 6, 11)
	rmat, err := sparse.RMAT[int64](9, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *sparse.CSR[int64]
		opts []Option
	}{
		// Prime locale counts force lopsided 1xP grids.
		{"er_p3", er, []Option{Locales(3), Threads(8)}},
		{"rmat_p7", rmat, []Option{Locales(7), Threads(8)}},
		// All 13 locales share one node: remote traffic at intra-node cost.
		{"er_onenode_p13", er, []Option{Locales(13), Threads(4), OneNode()}},
		// An armed fault plan must pin every comm decision to the variant
		// with established retry semantics, regardless of cost.
		{"er_chaos_p4", er, []Option{Locales(4), Threads(8), StandardChaosPlan(3)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			table := strategyScenario(t, tc.g, tc.opts...)
			if table == "" {
				t.Fatal("scenario recorded no decisions")
			}
			if again := strategyScenario(t, tc.g, tc.opts...); again != table {
				t.Fatalf("same graph and seed produced a different decision sequence:\n--- first\n%s--- second\n%s", table, again)
			}
			path := filepath.Join("testdata", "strategy_"+tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(table), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if table != string(want) {
				t.Errorf("decision table drifted from %s (run with -update if intentional):\n--- got\n%s--- want\n%s", path, table, want)
			}
		})
	}
}

// TestStrategyFaultPlanReason asserts the chaos scenario's comm decisions all
// carry the fault-plan reason: dispatch never switches variants under an
// armed fault plan.
func TestStrategyFaultPlanReason(t *testing.T) {
	g := sparse.ErdosRenyi[int64](400, 6, 11)
	table := strategyScenario(t, g, Locales(4), Threads(8), StandardChaosPlan(3))
	for _, line := range strings.Split(strings.TrimSuffix(table, "\n"), "\n") {
		if strings.Contains(line, "comm=") && !strings.Contains(line, "fault-plan") {
			t.Errorf("comm decision under chaos without fault-plan reason: %q", line)
		}
	}
	if !strings.Contains(table, "fault-plan") {
		t.Error("no fault-plan decisions recorded under an armed chaos plan")
	}
}

// TestStrategyAutoMatchesForcedBitwise is the correctness half of the
// inspector contract: whatever the dispatcher picks, the results are
// bitwise-identical to every forced variant. Comm and place variants agree on
// full results; push and pull agree on levels (the BFS tree itself is
// direction-dependent — each direction discovers a different valid parent).
// SpMV has one placement, so of the place pins only ForceGather runs here.
func TestStrategyAutoMatchesForcedBitwise(t *testing.T) {
	rmat, err := sparse.RMAT[int64](9, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *sparse.CSR[int64]
	}{
		{"er", sparse.ErdosRenyi[int64](600, 8, 3)},
		{"rmat", rmat},
	}
	for _, gr := range graphs {
		t.Run(gr.name, func(t *testing.T) {
			run := func(opts ...StrategyOption) (*BFSResult, []int64, *BFSResult) {
				ctx, err := New(Locales(4), Threads(8), WithStrategy(opts...))
				if err != nil {
					t.Fatal(err)
				}
				a := MatrixFromCSR(ctx, gr.g)
				bfs, err := BFS(ctx, a, 0)
				if err != nil {
					t.Fatal(err)
				}
				dist, _, err := SSSP(a, 0)
				if err != nil {
					t.Fatal(err)
				}
				dobfs, err := BFSDirectionOptimizing(a, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				return bfs, dist, dobfs
			}
			autoBFS, autoDist, autoDO := run(Auto)
			forced := []struct {
				name string
				opts []StrategyOption
			}{
				{"fine", []StrategyOption{ForceFine}},
				{"bulk", []StrategyOption{ForceBulk}},
				{"gather", []StrategyOption{ForceGather}},
				{"push", []StrategyOption{ForcePush}},
				{"pull", []StrategyOption{ForcePull}},
			}
			for _, fc := range forced {
				bfs, dist, dobfs := run(fc.opts...)
				if !equalInt64(bfs.Level, autoBFS.Level) || !equalInt64(bfs.Parent, autoBFS.Parent) {
					t.Errorf("%s: BFS result differs from auto", fc.name)
				}
				if !equalInt64(dist, autoDist) {
					t.Errorf("%s: SSSP distances differ from auto", fc.name)
				}
				if !equalInt64(dobfs.Level, autoDO.Level) {
					t.Errorf("%s: direction-optimizing BFS levels differ from auto", fc.name)
				}
			}
			// Cross-check the families against each other.
			if !equalInt64(autoDO.Level, autoBFS.Level) {
				t.Error("direction-optimizing levels differ from distributed BFS levels")
			}
		})
	}
}

// TestWithStrategySemantics covers the API contract of strategy derivation:
// the receiver is unmodified, the derived context starts with a fresh
// inspector (no inherited history or calibration), and invalid options error.
func TestWithStrategySemantics(t *testing.T) {
	g := sparse.ErdosRenyi[int64](400, 6, 11)
	parent, err := New(Locales(4), Threads(8))
	if err != nil {
		t.Fatal(err)
	}
	a := MatrixFromCSR(parent, g)
	if _, err := BFS(parent, a, 0); err != nil {
		t.Fatal(err)
	}
	parentTable := parent.StrategyTable()
	if parentTable == "" {
		t.Fatal("parent recorded no decisions")
	}

	child, err := parent.WithStrategy(ForceBulk)
	if err != nil {
		t.Fatal(err)
	}
	if got := child.StrategyTable(); got != "" {
		t.Errorf("derived context inherited decision history:\n%s", got)
	}
	if got := parent.Strategy().String(); got != "comm=auto dir=auto place=auto" {
		t.Errorf("receiver strategy changed to %q", got)
	}
	if got := child.Strategy().String(); got != "comm=bulk dir=auto place=auto" {
		t.Errorf("derived strategy = %q", got)
	}
	if _, err := BFS(child, a, 0); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(child.StrategyTable(), "\n"), "\n") {
		if strings.Contains(line, "comm=") && !strings.HasSuffix(line, "forced") {
			t.Errorf("forced-bulk child made a non-forced comm decision: %q", line)
		}
	}
	if got := parent.StrategyTable(); got != parentTable {
		t.Error("running the child appended decisions to the parent's inspector")
	}

	// Auto clears every pin accumulated so far.
	reset, err := child.WithStrategy(ForcePull, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if got := reset.Strategy().String(); got != "comm=auto dir=auto place=auto" {
		t.Errorf("Auto did not clear pins: %q", got)
	}

	// Pull threshold renders and validates.
	thr, err := parent.WithStrategy(PullThreshold(14))
	if err != nil {
		t.Fatal(err)
	}
	if got := thr.Strategy().String(); got != "comm=auto dir=auto place=auto pull-threshold=14" {
		t.Errorf("threshold strategy = %q", got)
	}

	// Invalid options surface errors from both installation paths.
	if _, err := New(WithStrategy(PullThreshold(0))); err == nil {
		t.Error("PullThreshold(0) accepted by New")
	}
	if _, err := parent.WithStrategy(PinEngine(Engine(42))); err == nil {
		t.Error("PinEngine(42) accepted by WithStrategy")
	}
	if _, err := New(Engine(42)); err == nil {
		t.Error("Engine(42) accepted by New")
	}
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzStrategyDispatch drives random graphs through random strategy pins and
// requires bitwise agreement with the automatic dispatcher — the fuzzing
// counterpart of TestStrategyAutoMatchesForcedBitwise.
func FuzzStrategyDispatch(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(5))
	f.Add(int64(4), uint8(14))
	f.Add(int64(5), uint8(22))
	f.Add(int64(6), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, pins uint8) {
		g := sparse.ErdosRenyi[int64](300, 6, seed)
		var opts []StrategyOption
		switch pins % 3 {
		case 1:
			opts = append(opts, ForceFine)
		case 2:
			opts = append(opts, ForceBulk)
		}
		switch (pins / 3) % 3 {
		case 1:
			opts = append(opts, ForcePush)
		case 2:
			opts = append(opts, ForcePull)
		}
		switch (pins / 9) % 3 {
		case 1:
			opts = append(opts, ForceGather)
		case 2:
			opts = append(opts, ForceReplicate)
		}
		if thr := int(pins>>6) & 3; thr > 0 {
			opts = append(opts, PullThreshold(thr*7))
		}
		run := func(opts ...StrategyOption) (*BFSResult, []int64, *BFSResult) {
			ctx, err := New(Locales(4), Threads(4), WithStrategy(opts...))
			if err != nil {
				t.Fatal(err)
			}
			a := MatrixFromCSR(ctx, g)
			bfs, err := BFS(ctx, a, 0)
			if err != nil {
				t.Fatal(err)
			}
			dist, _, err := SSSP(a, 0)
			if err != nil {
				t.Fatal(err)
			}
			dobfs, err := BFSDirectionOptimizing(a, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			return bfs, dist, dobfs
		}
		autoBFS, autoDist, autoDO := run(Auto)
		bfs, dist, dobfs := run(opts...)
		if !equalInt64(bfs.Level, autoBFS.Level) || !equalInt64(bfs.Parent, autoBFS.Parent) {
			t.Errorf("pins %d: BFS result differs from auto", pins)
		}
		if !equalInt64(dist, autoDist) {
			t.Errorf("pins %d: SSSP distances differ from auto", pins)
		}
		if !equalInt64(dobfs.Level, autoDO.Level) || !equalInt64(dobfs.Level, autoBFS.Level) {
			t.Errorf("pins %d: direction-optimizing levels differ", pins)
		}
	})
}
