package algorithms

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// SSSPDist and CCDist relax only from the vertices that changed in the round
// before. These tests hold them, round for round, to the all-rows rounds they
// replaced: a sequential reference that relaxes from every row every round
// (allRowsSSSP, allRowsCC), and the round counts and result hashes the
// all-rows implementation produced on the same inputs (pinned below).

// allRowsSSSP is Bellman–Ford relaxing from every reached row in every round
// (Jacobi sweeps, the min taken against the distances of the round before).
// It returns the distances, the rounds run and the edges visited.
func allRowsSSSP(a *sparse.CSR[float64], source int) (dist []float64, rounds int, visits int64) {
	n := a.NRows
	inf := math.Inf(1)
	dist = make([]float64, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[source] = 0
	relaxed := make([]float64, n)
	for iter := 0; iter < n-1; iter++ {
		for i := range relaxed {
			relaxed[i] = inf
		}
		for i, d := range dist {
			if d == inf {
				continue
			}
			cols, vals := a.Row(i)
			visits += int64(len(cols))
			for k, j := range cols {
				if p := d + vals[k]; vals[k] != inf && p < relaxed[j] {
					relaxed[j] = p
				}
			}
		}
		changed := false
		for i := range dist {
			if relaxed[i] < dist[i] {
				dist[i], changed = relaxed[i], true
			}
		}
		rounds++
		if !changed {
			break
		}
	}
	return dist, rounds, visits
}

// allRowsCC is min-label propagation offering every vertex's label to its
// neighbours in every round.
func allRowsCC(a *sparse.CSR[float64]) (labels []int64, rounds int) {
	n := a.NRows
	labels = make([]int64, n)
	for i := range labels {
		labels[i] = int64(i)
	}
	prop := make([]int64, n)
	for {
		rounds++
		for i := range prop {
			prop[i] = math.MaxInt64
		}
		for i, l := range labels {
			cols, _ := a.Row(i)
			for _, j := range cols {
				prop[j] = min(prop[j], l)
			}
		}
		changed := false
		for i := range labels {
			if prop[i] < labels[i] {
				labels[i], changed = prop[i], true
			}
		}
		if !changed {
			return labels, rounds
		}
	}
}

// undirected symmetrizes a's pattern (self loops dropped); the weight of
// {i, j} is a function of the pair, so the matrix is symmetric in value too.
func undirected(t *testing.T, a *sparse.CSR[float64], weight func(i, j int) float64) *sparse.CSR[float64] {
	t.Helper()
	coo := sparse.NewCOO[float64](a.NRows, a.NRows)
	for i := 0; i < a.NRows; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if i != j {
				w := weight(min(i, j), max(i, j))
				coo.Append(i, j, w)
				coo.Append(j, i, w)
			}
		}
	}
	out, err := coo.ToCSR(func(x, _ float64) float64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func finiteWeight(i, j int) float64 { return float64(1 + (i*131+j*7)%10) }

// infDAG keeps the forward edges (i < j) of an Erdős–Rényi draw and weights
// most of them in [1, 10], every 17th +Inf (an edge that can never relax
// anything) and every 29th -Inf (every distance downstream of it is -Inf).
// From source 3 about a quarter of the distances end finite, a quarter -Inf,
// and the rest unreachable.
func infDAG(t *testing.T) *sparse.CSR[float64] {
	t.Helper()
	g := sparse.ErdosRenyi[float64](200, 6, 92)
	coo := sparse.NewCOO[float64](g.NRows, g.NRows)
	for i := 0; i < g.NRows; i++ {
		cols, _ := g.Row(i)
		for _, j := range cols {
			if i >= j {
				continue
			}
			w := finiteWeight(i, j)
			switch k := i*131 + j*7; {
			case k%17 == 0:
				w = math.Inf(1)
			case k%29 == 0:
				w = math.Inf(-1)
			}
			coo.Append(i, j, w)
		}
	}
	out, err := coo.ToCSR(func(x, _ float64) float64 { return x })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// changedSetInputs are the graphs of the identity suite, each with a source
// for SSSP; "rmat-isolated" starts from a vertex with no edges at all.
func changedSetInputs(t *testing.T) []struct {
	name   string
	a      *sparse.CSR[float64]
	source int
} {
	t.Helper()
	rmat, err := sparse.RMAT[float64](8, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	rmat = undirected(t, rmat, finiteWeight)
	isolated := -1
	for i := 0; i < rmat.NRows && isolated < 0; i++ {
		if rmat.RowNNZ(i) == 0 {
			isolated = i
		}
	}
	if isolated < 0 {
		t.Fatal("R-MAT input has no isolated vertex")
	}
	grid, err := sparse.Grid2D[float64](9, 13)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		a      *sparse.CSR[float64]
		source int
	}{
		{"er", sparse.ErdosRenyi[float64](300, 4, 91), 7},
		{"er-inf", infDAG(t), 3},
		{"rmat", rmat, 0},
		{"rmat-isolated", rmat, isolated},
		{"grid", grid, 40},
	}
}

// pinned holds what the all-rows SSSPDist / CCDist returned on
// changedSetInputs before the changed set replaced them (commit f66b8bc):
// round counts, component count, and FNV-1a hashes of the result bits.
var pinned = map[string]struct {
	ssspRounds       int
	ssspHash         uint64
	ccRounds, ccComp int
	ccHash           uint64
}{
	"er":            {13, 0x5b62d24bfa099658, 8, 8, 0x1737d416e04db29f},
	"er-inf":        {10, 0x45a2edcea21bc094, 11, 32, 0xbd55bdb335f225ff},
	"rmat":          {5, 0x7e2b0db61c364615, 4, 54, 0x2e0fefd97d2f063b},
	"rmat-isolated": {1, 0xc9ce0d63c3adf158, 4, 54, 0x2e0fefd97d2f063b},
	"grid":          {17, 0xde9b916822ec38b1, 21, 1, 0x302cd300be5a245},
}

// hashBits is FNV-1a over the 64-bit patterns of xs.
func hashBits[T float64 | int64](xs []T, bits func(T) uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashFloats(xs []float64) uint64 { return hashBits(xs, math.Float64bits) }

func hashLabels(xs []int64) uint64 {
	return hashBits(xs, func(x int64) uint64 { return uint64(x) })
}

// gridRT builds a runtime over an explicit pr×pc grid.
func gridRT(t *testing.T, pr, pc int, fused bool) *locale.Runtime {
	t.Helper()
	g, err := locale.NewGridShape(pr, pc)
	if err != nil {
		t.Fatal(err)
	}
	rt := locale.NewWithGrid(machine.Edison(), g, 24)
	rt.Fusion = fused
	return rt
}

func TestChangedSetRoundsMatchAllRows(t *testing.T) {
	for _, in := range changedSetInputs(t) {
		wantDist, wantRounds, _ := allRowsSSSP(in.a, in.source)
		refDist := RefSSSP(in.a, in.source)
		wantLabels, wantCCRounds := allRowsCC(in.a)
		refLabels, wantComp := RefCC(in.a)
		pin := pinned[in.name]
		for _, shape := range [][2]int{{1, 1}, {2, 2}, {1, 5}, {4, 4}} {
			for _, fused := range []bool{false, true} {
				rt := gridRT(t, shape[0], shape[1], fused)
				a := dist.MatFromCSR(rt, in.a)
				fail := func(format string, args ...any) {
					t.Helper()
					t.Errorf("%s %dx%d fused=%v: "+format, append([]any{in.name, shape[0], shape[1], fused}, args...)...)
				}

				got, rounds, err := SSSPDist(rt, a, in.source)
				if err != nil {
					t.Fatal(err)
				}
				for v := range got {
					if math.Float64bits(got[v]) != math.Float64bits(wantDist[v]) || got[v] != refDist[v] {
						fail("dist[%d] = %v, all-rows %v, RefSSSP %v", v, got[v], wantDist[v], refDist[v])
						break
					}
				}
				if rounds != wantRounds || rounds != pin.ssspRounds || hashFloats(got) != pin.ssspHash {
					fail("SSSP rounds %d hash %#x; all-rows reference %d rounds, pinned %d rounds hash %#x",
						rounds, hashFloats(got), wantRounds, pin.ssspRounds, pin.ssspHash)
				}

				labels, comps, ccRounds, err := ccDistInit(rt, a, nil)
				if err != nil {
					t.Fatal(err)
				}
				for v := range labels {
					if labels[v] != wantLabels[v] || labels[v] != refLabels[v] {
						fail("label[%d] = %d, all-rows %d, RefCC %d", v, labels[v], wantLabels[v], refLabels[v])
						break
					}
				}
				if ccRounds != wantCCRounds || comps != wantComp ||
					ccRounds != pin.ccRounds || comps != pin.ccComp || hashLabels(labels) != pin.ccHash {
					fail("CC rounds %d components %d hash %#x; all-rows reference %d rounds %d components, pinned %d rounds %d components hash %#x",
						ccRounds, comps, hashLabels(labels), wantCCRounds, wantComp, pin.ccRounds, pin.ccComp, pin.ccHash)
				}
				if n := rt.Scratch.Outstanding(); n != 0 {
					fail("%d arena loans outstanding", n)
				}
			}
		}
	}
}

// A warm start hands ccDistInit labels that are not the identity labelling;
// the first round must still offer every one of them. Through the streaming
// path: components computed at one epoch seed the next, on every grid and in
// both modes, and land on the labels of a cold start and of the sequential
// reference.
func TestChangedSetWarmStartCC(t *testing.T) {
	base := undirected(t, sparse.ErdosRenyi[float64](240, 1.2, 93), finiteWeight)
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {1, 5}, {4, 4}} {
		for _, fused := range []bool{false, true} {
			rt := gridRT(t, shape[0], shape[1], fused)
			em := dist.NewEpochMat(dist.MatFromCSR(rt, base))
			prev, err := IncrementalCC(rt, em, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Insert-only interval: bridges between far-apart vertices.
			for k := 0; k < 12; k++ {
				u, v := (k*37)%240, (k*101+120)%240
				if u == v {
					continue
				}
				if err := em.UpdateBatch([]int{u, v}, []int{v, u}, []float64{1, 1}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := em.Flush(rt); err != nil {
				t.Fatal(err)
			}
			warm, err := IncrementalCC(rt, em, prev)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := IncrementalCC(rt, em, nil)
			if err != nil {
				t.Fatal(err)
			}
			mat, _ := em.Snapshot()
			csr, err := mat.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			want, _ := allRowsCC(csr)
			if warm.Components != cold.Components || warm.Components >= prev.Components {
				t.Fatalf("%dx%d fused=%v: components prev %d, warm %d, cold %d", shape[0], shape[1], fused,
					prev.Components, warm.Components, cold.Components)
			}
			for v := range want {
				if warm.Labels[v] != want[v] || cold.Labels[v] != want[v] {
					t.Fatalf("%dx%d fused=%v: label[%d] warm %d, cold %d, reference %d", shape[0], shape[1], fused,
						v, warm.Labels[v], cold.Labels[v], want[v])
				}
			}
			if warm.Rounds > cold.Rounds {
				t.Errorf("%dx%d fused=%v: warm start took %d rounds, cold %d", shape[0], shape[1], fused, warm.Rounds, cold.Rounds)
			}
		}
	}
}

// The point of the changed set: the multiply walks only the rows of vertices
// that improved. On the end-to-end benchmark's kind of input (ER, n = 8192,
// mean degree 16, weights in [1, 100)) one SSSP visits at most half the edges
// the all-rows rounds visited. The runtime's kernel-item counter holds the
// rows walked plus, per round and block, one compare per row.
func TestChangedSetHalvesEdgeVisits(t *testing.T) {
	a0 := sparse.ErdosRenyi[float64](8192, 16, 94)
	_, wantRounds, allRows := allRowsSSSP(a0, 5)
	for _, fused := range []bool{false, true} {
		rt := gridRT(t, 4, 4, fused)
		a := dist.MatFromCSR(rt, a0)
		before := rt.S.Traffic().Items
		_, rounds, err := SSSPDist(rt, a, 5)
		if err != nil {
			t.Fatal(err)
		}
		if rounds != wantRounds {
			t.Fatalf("fused=%v: %d rounds, all-rows %d", fused, rounds, wantRounds)
		}
		rowCompares := 0
		for _, blk := range a.Blocks {
			rowCompares += blk.NRows
		}
		visited := rt.S.Traffic().Items - before - int64(rounds*rowCompares)
		t.Logf("fused=%v: %d rounds, %d edge visits, all-rows %d (%.2fx)", fused, rounds, visited, allRows, float64(allRows)/float64(visited))
		if visited <= 0 || 2*visited > allRows {
			t.Errorf("fused=%v: %d edge visits, more than half the all-rows %d", fused, visited, allRows)
		}
	}
}
