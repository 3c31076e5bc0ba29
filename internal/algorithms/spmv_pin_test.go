package algorithms

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

var updatePins = flag.Bool("update", false, "rewrite the golden output pins under testdata")

// spmvPinInput is the dense x of the pinned SpMV rounds: the additive
// identity on every third entry (rows the multiply skips), MaxValue now and
// then (the saturating multiplies' absorbing value), and thirds of both
// signs, zero and -0 included, everywhere else, so that sums round and their
// order shows.
func spmvPinInput(n int, id float64) *sparse.Dense[float64] {
	x := sparse.NewDense[float64](n)
	for i := range x.Data {
		switch {
		case i%3 == 0:
			x.Data[i] = id
		case i%29 == 2:
			x.Data[i] = semiring.MaxValue[float64]()
		case i%31 == 4:
			x.Data[i] = math.Copysign(0, -1)
		default:
			x.Data[i] = (float64((i*7)%13) - 4) / 3
		}
	}
	return x
}

// TestSpMVRoundOutputPinned pins, bit for bit, what the distributed SpMV
// round computes: FNV-64a hashes of SpMVDist's output for every built-in
// semiring kind and one user semiring, and of what the three algorithms that
// consume the round through FusedSpMVUpdate return — SSSPDist's distances,
// PageRankDist's ranks (float bits) and CCDist's labels, with their round
// counts — on ER and R-MAT inputs over 1 to 16 locales, eager and fused, on
// NewGrid's squarest grids (Pr <= Pc) and on the explicit 1×4, 4×1, 3×1 and
// 3×2 shapes (one-member column teams, one-member row teams, taller than
// wide). The
// hashes were recorded from the per-row walk that calls CSR.Row on every
// block row and the per-element update, so a rewrite of either that keeps
// the values and their order passes unchanged. Regenerate with go test
// ./internal/algorithms -run OutputPinned -update.
func TestSpMVRoundOutputPinned(t *testing.T) {
	rmat, err := sparse.RMAT[float64](8, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		a    *sparse.CSR[float64]
	}{
		{"er", sparse.ErdosRenyi[float64](301, 4, 91)},
		{"rmat", rmat},
	}
	user := semiring.Semiring[float64]{
		Name: "user",
		Add:  semiring.Monoid[float64]{Op: func(a, b float64) float64 { return a + b }},
		Mul:  func(x, v float64) float64 { return x - v/2 },
	}
	srs := []semiring.Semiring[float64]{
		semiring.PlusTimes[float64](), semiring.MinPlus[float64](), semiring.MaxPlus[float64](),
		semiring.LOrLAnd[float64](), semiring.MinSecond[float64](), semiring.MinFirst[float64](), user,
	}

	var b strings.Builder
	for _, g := range graphs {
		for _, sh := range [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 3}, {4, 4}, {1, 4}, {4, 1}, {3, 1}, {3, 2}} {
			for _, fused := range []bool{false, true} {
				rt := newShapedRT(t, sh[0], sh[1])
				rt.Fusion = fused
				a := dist.MatFromCSR(rt, g.a)
				record := func(entry string, rounds int, h uint64) {
					fmt.Fprintf(&b, "%s %dx%d fused=%v %s rounds=%d hash=%016x\n", g.name, rt.G.Pr, rt.G.Pc, fused, entry, rounds, h)
					if out := rt.Scratch.Outstanding(); out != 0 {
						t.Errorf("%s %dx%d fused=%v %s: %d arena loans outstanding", g.name, rt.G.Pr, rt.G.Pc, fused, entry, out)
					}
				}
				for _, sr := range srs {
					x := dist.DenseVecFromDense(rt, spmvPinInput(g.a.NRows, sr.AddIdentity()))
					y, err := core.SpMVDist(rt, a, x, sr)
					if err != nil {
						t.Fatal(err)
					}
					record("SpMVDist/"+sr.Name, 0, hashFloats(y.ToDense().Data))
				}
				d, rounds, err := SSSPDist(rt, a, 1)
				if err != nil {
					t.Fatal(err)
				}
				record("SSSPDist", rounds, hashFloats(d))
				r, iters, err := PageRankDist(rt, a, 0.85, 1e-9, 40)
				if err != nil {
					t.Fatal(err)
				}
				record("PageRankDist", iters, hashFloats(r))
				labels, _, rounds, err := ccDistInit(rt, a, nil)
				if err != nil {
					t.Fatal(err)
				}
				record("CCDist", rounds, hashLabels(labels))
			}
		}
	}

	path := filepath.Join("testdata", "spmv_outputs.golden")
	if *updatePins {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d pinned lines, want %d (run with -update to regenerate)", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("output drifted from %s:\ngot  %s\nwant %s", path, gotLines[i], wantLines[i])
		}
	}
}

// newShapedRT is newRT on an explicit pr×pc grid, one locale per node.
func newShapedRT(t *testing.T, pr, pc int) *locale.Runtime {
	t.Helper()
	g, err := locale.NewGridShape(pr, pc)
	if err != nil {
		t.Fatal(err)
	}
	return locale.NewWithGrid(machine.Edison(), g, 24)
}
