package gb

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// TestEveryCallAdvancesTheClock is the accounting invariant of the modeled
// clock: a public operation or algorithm that did work on a non-empty input
// charged for it, so Context.Elapsed strictly increases across the call. A
// call that forgets to hand its kernels the context's simulator reads as
// free in every modeled figure and in gbserve's modeled_ms; one table entry
// here covers a new call.
//
// BetweennessCentrality is the one known exception: it is the last algorithm
// that runs on a gathered copy, Brandes' sweeps with no cost model (ROADMAP
// item 10). The test pins that too, so the exception cannot outlive a fix.
func TestEveryCallAdvancesTheClock(t *testing.T) {
	ctx, err := New(Locales(4), Threads(24))
	if err != nil {
		t.Fatal(err)
	}
	const uncharged = "BetweennessCentrality"
	for _, c := range clockCalls(t, ctx) {
		before := ctx.Elapsed()
		if err := c.run(); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if after := ctx.Elapsed(); (after > before) == (c.name == uncharged) {
			t.Errorf("%s: modeled clock went %v s -> %v s", c.name, before, after)
		}
	}
}

// TestChargeLedgerGolden pins, bit for bit, what every call of the clock
// table charges, once per shared-memory engine: the float64 bits of the
// modeled Elapsed delta (ns), each locale's clock, the traffic counters and
// the ns of every phase the call recorded. A host-side rewrite of a kernel
// must leave testdata/charges.golden byte-identical; one that moves a charge
// on purpose regenerates it with go test ./gb -run ChargeLedger -update.
func TestChargeLedgerGolden(t *testing.T) {
	var b strings.Builder
	for _, e := range []struct {
		name   string
		engine Engine
	}{{"mergesort", MergeSort}, {"radixsort", RadixSort}, {"bucket", Bucket}} {
		ctx, err := New(Locales(4), Threads(24), e.engine)
		if err != nil {
			t.Fatal(err)
		}
		s := ctx.rt.S
		fmt.Fprintf(&b, "engine %s\n", e.name)
		for _, c := range clockCalls(t, ctx) {
			before, phases := s.Elapsed(), s.PhaseCount()
			if err := c.run(); err != nil {
				t.Fatalf("%s: %s: %v", e.name, c.name, err)
			}
			fmt.Fprintf(&b, "%s\n  delta %016x\n  clocks", c.name, math.Float64bits(s.Elapsed()-before))
			for l := 0; l < s.P(); l++ {
				fmt.Fprintf(&b, " %016x", math.Float64bits(s.Clock(l)))
			}
			fmt.Fprintf(&b, "\n  traffic %+v\n", s.Traffic())
			for _, ph := range s.PhasesSince(phases) {
				fmt.Fprintf(&b, "  phase %q %016x\n", ph.Name, math.Float64bits(ph.NS))
			}
		}
	}
	path := filepath.Join("testdata", "charges.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Fatalf("charges drifted from %s at line %d (run with -update to regenerate):\ngot  %s\nwant %s", path, i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d ledger lines, want %d", len(got), len(wantLines))
	}
}

// clockCall is one row of the clock tables: a public call on the context.
type clockCall struct {
	name string
	run  func() error
}

// clockCalls is the table of public operations and algorithms the clock
// tests run in order on ctx, a 4-locale context: a symmetric graph with
// triangles (so every algorithm has work), and the vectors the operations
// read; calls that write take a fresh copy.
func clockCalls(t *testing.T, ctx *Context) []clockCall {
	t.Helper()
	const n = 96
	g := MatrixFromCSR(ctx, symCSR(t, n, 8, 11))
	vec := func() *Vector[int64] { return RandomVector[int64](ctx, n, 24, 12) }
	dense := DenseVectorFromSlice(ctx, sparse.RandomBoolDense[int64](n, 0.5, 13).Data)
	double := func(x int64) int64 { return 2 * x }
	stream := g.Streaming()
	if err := stream.Update(0, n-1, 1); err != nil {
		t.Fatal(err)
	}

	return []clockCall{
		{"Apply", func() error { Apply(vec(), double); return nil }},
		{"ApplyNaive", func() error { ApplyNaive(vec(), double); return nil }},
		{"ApplyMatrix", func() error { ApplyMatrix(g, func(int64) int64 { return 1 }); return nil }},
		{"Assign", func() error { return Assign(vec(), vec()) }},
		{"AssignNaive", func() error { return AssignNaive(vec(), vec()) }},
		{"AssignIndexed", func() error {
			src, err := VectorFromSlices(ctx, 2, []int{0, 1}, []int64{5, 6})
			if err != nil {
				return err
			}
			return AssignIndexed(vec(), []int{3, n - 2}, src)
		}},
		{"Extract", func() error { _, err := Extract(vec(), []int{1, 2, 3, n - 1}); return err }},
		{"Select", func() error { Select(vec(), func(int, int64) bool { return true }); return nil }},
		{"Reduce", func() error { Reduce(vec(), PlusMonoid[int64]()); return nil }},
		{"ReduceRows", func() error { ReduceRows(g, PlusMonoid[int64]()); return nil }},
		{"EWiseMult", func() error {
			_, err := EWiseMult(vec(), dense, func(_, m int64) bool { return m != 0 })
			return err
		}},
		{"EWiseAdd", func() error { _, err := EWiseAdd(vec(), vec(), plus); return err }},
		{"EWiseMultSparse", func() error { _, err := EWiseMultSparse(vec(), vec(), plus); return err }},
		{"SpMSpV", func() error { _, err := SpMSpV(g, vec()); return err }},
		{"SpMSpVSemiring", func() error { _, err := SpMSpVSemiring(g, vec(), MinPlus[int64]()); return err }},
		{"SpMSpVMasked", func() error { _, err := SpMSpVMasked(g, vec(), dense); return err }},
		{"SpMV", func() error { _, err := SpMV(g, dense, PlusTimes[int64]()); return err }},
		{"Transpose", func() error { _, err := Transpose(g); return err }},
		{"MxM", func() error { _, err := MxM(g, g, PlusTimes[int64]()); return err }},
		{"MxMMasked", func() error { _, err := MxMMasked(g, g, g, PlusTimes[int64]()); return err }},
		{"BFS", func() error { _, err := BFS(ctx, g, 0); return err }},
		{"BFSMasked", func() error { _, err := BFSMasked(ctx, g, 0); return err }},
		{"BFSDirectionOptimizing", func() error { _, err := BFSDirectionOptimizing(g, 0, 0); return err }},
		{"MultiSourceBFS", func() error { _, _, err := MultiSourceBFS(g, []int{0, 5}); return err }},
		{"SSSP", func() error { _, _, err := SSSP(g, 0); return err }},
		{"ConnectedComponents", func() error { _, _, err := ConnectedComponents(g); return err }},
		{"PageRank", func() error { _, _, err := PageRank(g, 0.85, 1e-6, 20); return err }},
		{"TriangleCount", func() error { _, err := TriangleCount(g); return err }},
		{"KTruss", func() error { _, _, err := KTruss(g, 3); return err }},
		{"BetweennessCentrality", func() error { _, err := BetweennessCentrality(g, []int{0, 1}); return err }},
		{"StreamingMatrix.Flush", func() error { _, err := stream.Flush(); return err }},
		{"StreamingMatrix.IncrementalCC", func() error { _, err := stream.IncrementalCC(nil); return err }},
		{"StreamingMatrix.IncrementalSSSP", func() error { _, err := stream.IncrementalSSSP(0, nil); return err }},
		{"IncrementalSSSP (warm, nothing changed)", func() error {
			m, _ := stream.Matrix()
			prev, err := IncrementalSSSP(m, 1, nil)
			if err != nil {
				return err
			}
			before := ctx.Elapsed()
			st, err := IncrementalSSSP(m, 1, prev)
			if err == nil && (!st.Warm || ctx.Elapsed() <= before) {
				err = fmt.Errorf("warm %v, clock %v s -> %v s", st.Warm, before, ctx.Elapsed())
			}
			return err
		}},
		{"StreamingMatrix.StreamingPageRank", func() error {
			_, err := stream.StreamingPageRank(0.85, 1e-6, 20, nil)
			return err
		}},
	}
}

func plus(a, b int64) int64 { return a + b }
