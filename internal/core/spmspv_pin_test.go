package core

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/sparse"
)

var updatePins = flag.Bool("update", false, "rewrite the golden output pins under testdata")

// pinHash is the FNV-64a hash of xs, each value as 8 little-endian bytes.
func pinHash[E int | int64](xs []E) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSpMSpVPipelineOutputPinned pins, bit for bit, what every entry point of
// the distributed SpMSpV pipeline returns: FNV-64a hashes of Ind and Val (the
// first-wins discoverer of each column) over grids of 1 to 16 locales, the
// bucket and merge-sort engines and both comm pins, at one worker, and for
// the unmasked fine and bulk calls also what they charge (every locale's
// clock and the traffic counters, each call alone on a fresh runtime). The
// hashes were recorded from the global-bitmap scatter, so a rewrite of the
// scatter that keeps its first-wins resolution passes unchanged. Regenerate
// with go test ./internal/core -run OutputPinned -update.
func TestSpMSpVPipelineOutputPinned(t *testing.T) {
	const n = 611
	a0 := sparse.ErdosRenyi[int64](n, 7, 81)
	x0 := sparse.RandomVec[int64](n, 70, 82)
	mask0 := sparse.RandomBoolDense[int64](n, 0.4, 83)

	var b strings.Builder
	for _, p := range []int{1, 4, 6, 7, 9, 16} {
		for _, engine := range []Engine{EngineBucket, EngineMergeSort} {
			for _, comm := range []inspect.Comm{inspect.CommFine, inspect.CommBulk} {
				rt := newRT(t, p, 24)
				rt.ShmEngine = int(engine)
				rt.Insp = inspect.New(inspect.Strategy{Comm: comm})
				a := dist.MatFromCSR(rt, a0)
				x := func() *dist.SpVec[int64] { return dist.SpVecFromVec(rt, x0) }
				mask := func() *dist.DenseVec[int64] { return dist.DenseVecFromDense(rt, mask0.Clone()) }
				record := func(entry string, ind []int, val []int64) {
					fmt.Fprintf(&b, "%dx%d %s %s %s ind=%016x val=%016x\n",
						rt.G.Pr, rt.G.Pc, engine, comm, entry, pinHash(ind), pinHash(val))
					if out := rt.Scratch.Outstanding(); out != 0 {
						t.Errorf("%dx%d %s %s %s: %d arena loans outstanding", rt.G.Pr, rt.G.Pc, engine, comm, entry, out)
					}
				}
				// charges appends, to entry's line, hashes of every locale's
				// clock bits and of the traffic counters.
				charges := func(entry string, r *locale.Runtime) {
					clocks := make([]int64, r.G.P)
					for l := range clocks {
						clocks[l] = int64(math.Float64bits(r.S.Clock(l)))
					}
					c := r.S.Traffic()
					traffic := []int64{c.Messages, c.Bytes, c.FineOps, c.BulkOps, c.Barriers, c.Coforalls, c.Retries, c.Items}
					fmt.Fprintf(&b, "%dx%d %s %s %s clocks=%016x traffic=%016x\n",
						r.G.Pr, r.G.Pc, engine, comm, entry, pinHash(clocks), pinHash(traffic))
				}
				vec := func(entry string, y *dist.SpVec[int64]) {
					v := y.ToVec()
					record(entry, v.Ind, v.Val)
				}

				// The first call on a fresh runtime: its clocks and traffic are
				// what the call charges.
				y, _ := SpMSpVDist(rt, a, x())
				vec("SpMSpVDist", y)
				charges("SpMSpVDist", rt)
				rtB := newRT(t, p, 24)
				rtB.ShmEngine = int(engine)
				yb, _, err := SpMSpVDistBulk(rtB, dist.MatFromCSR(rtB, a0), dist.SpVecFromVec(rtB, x0))
				if err != nil {
					t.Fatal(err)
				}
				v := yb.ToVec()
				record("SpMSpVDistBulk", v.Ind, v.Val)
				charges("SpMSpVDistBulk", rtB)
				y, _, _ = SpMSpVDistMasked(rt, a, x(), mask())
				vec("SpMSpVDistMasked", y)
				dst := dist.NewSpVec[int64](rt, n)
				FusedSpMSpVMaskedAssign(rt, a, x(), mask(), dst)
				vec("FusedSpMSpVMaskedAssign", dst)
				dst = dist.NewSpVec[int64](rt, n)
				FusedSpMSpVFilterAssign(rt, a, x(), mask(), func(v, m int64) bool { return m == 0 && v%3 != 1 }, dst)
				vec("FusedSpMSpVFilterAssign", dst)
				y, _, _ = SpMSpVDistAuto(rt, a, x())
				vec("SpMSpVDistAuto", y)

				levels, parents := make([]int64, n), make([]int64, n)
				for i := range levels {
					levels[i], parents[i] = -1, -1
				}
				frontier, visited := x(), mask()
				FusedBFSRound(rt, a, frontier, visited, 2, levels, parents)
				vec("FusedBFSRound/frontier", frontier)
				record("FusedBFSRound/levels", nil, levels)
				record("FusedBFSRound/parents", nil, parents)
				record("FusedBFSRound/visited", nil, visited.ToDense().Data)
			}
		}
	}

	path := filepath.Join("testdata", "spmspv_outputs.golden")
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
