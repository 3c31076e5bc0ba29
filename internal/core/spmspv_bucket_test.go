package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// bucketWorkloads builds the matrix/vector pairs the equivalence tests sweep:
// an Erdős–Rényi graph and an R-MAT graph (skewed degrees stress the bucket
// load balance), each with a moderately dense input vector, and the ER graph
// again under a vector with out-of-range indices.
func bucketWorkloads(t *testing.T) []struct {
	name string
	a    *sparse.CSR[int64]
	x    *sparse.Vec[int64]
} {
	t.Helper()
	er := sparse.ErdosRenyi[int64](20_000, 8, 601)
	rmat, err := sparse.RMAT[int64](14, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		a    *sparse.CSR[int64]
		x    *sparse.Vec[int64]
	}{
		{"er", er, sparse.RandomVec[int64](er.NRows, 400, 602)},
		{"rmat", rmat, sparse.RandomVec[int64](rmat.NRows, 300, 603)},
		{"er-out-of-range-x", er, outOfRangeVec(er.NRows)},
	}
}

// outOfRangeVec is a frontier whose first and last indices select no row of
// an n-row matrix: every engine must skip them, not fault on them.
func outOfRangeVec(n int) *sparse.Vec[int64] {
	x := sparse.RandomVec[int64](n, 200, 608)
	x.Ind = append(append([]int{-3}, x.Ind...), n, n+17)
	x.Val = append(append([]int64{1}, x.Val...), 1, 1)
	return x
}

// TestSpMSpVBucketMatchesMergeSortEngine is the shape-invariance test of the
// bucket engine: the one-worker direct claim, the multi-worker bucket merge
// and the paper's one-worker merge-sort pipeline return the same (Ind, Val)
// and ShmStats, and the bucket engine charges the same modeled time whatever
// the worker count — the BucketMergeStats behind chargeBucketMerge do not
// depend on which of its two paths ran.
func TestSpMSpVBucketMatchesMergeSortEngine(t *testing.T) {
	for _, w := range bucketWorkloads(t) {
		want, wantSt := SpMSpVShm(w.a, w.x, ShmConfig{Threads: 24, Engine: EngineMergeSort, Workers: 1})
		var wantNS float64
		for _, workers := range []int{1, 2, 4, 9} {
			rt := newRT(t, 1, 24)
			got, gotSt := SpMSpVBucket(w.a, w.x, ShmConfig{Threads: 24, Workers: workers, Sim: rt.S})
			if !got.Equal(want) {
				t.Fatalf("%s workers=%d: bucket result differs from merge-sort engine", w.name, workers)
			}
			if gotSt != wantSt {
				t.Fatalf("%s workers=%d: stats %+v, want %+v", w.name, workers, gotSt, wantSt)
			}
			if workers == 1 {
				wantNS = rt.S.Elapsed()
			} else if rt.S.Elapsed() != wantNS {
				t.Fatalf("%s workers=%d: modeled %.0f ns, one worker charged %.0f", w.name, workers, rt.S.Elapsed(), wantNS)
			}
		}
		// The Engine knob on the general entry point must reach the same code.
		viaKnob, _ := SpMSpVShm(w.a, w.x, ShmConfig{Threads: 24, Engine: EngineBucket, Workers: 4})
		if !viaKnob.Equal(want) {
			t.Fatalf("%s: ShmConfig{Engine: EngineBucket} differs from merge-sort engine", w.name)
		}
	}
}

func TestSpMSpVBucketSemiringMatchesMergeSortEngine(t *testing.T) {
	// A built-in semiring (inlined arithmetic on the one-worker path) and a
	// user's struct literal of the same operators (function-valued fallback).
	builtin := semiring.PlusTimes[int64]()
	literal := semiring.Semiring[int64]{Name: "mine", Add: builtin.Add, Mul: builtin.Mul}
	for _, w := range bucketWorkloads(t) {
		want, wantSt := SpMSpVShmSemiring(w.a, w.x, builtin, ShmConfig{Threads: 24, Engine: EngineMergeSort, Workers: 1})
		for _, sr := range []semiring.Semiring[int64]{builtin, literal} {
			var wantNS float64
			for _, workers := range []int{1, 2, 4, 9} {
				rt := newRT(t, 1, 24)
				got, gotSt := SpMSpVShmSemiring(w.a, w.x, sr, ShmConfig{Threads: 24, Engine: EngineBucket, Workers: workers, Sim: rt.S})
				if !got.Equal(want) {
					t.Fatalf("%s %s workers=%d: bucket semiring result differs", w.name, sr.Name, workers)
				}
				if gotSt != wantSt {
					t.Fatalf("%s %s workers=%d: stats %+v, want %+v", w.name, sr.Name, workers, gotSt, wantSt)
				}
				if workers == 1 {
					wantNS = rt.S.Elapsed()
				} else if rt.S.Elapsed() != wantNS {
					t.Fatalf("%s %s workers=%d: modeled %.0f ns, one worker charged %.0f", w.name, sr.Name, workers, rt.S.Elapsed(), wantNS)
				}
			}
		}
	}
}

// TestSpMSpVBucketModeledFaster pins the tentpole's performance claim: on the
// three Fig 7 workload shapes (scaled to n=100K) the bucket engine's modeled
// time at 24 threads must be strictly below the paper's merge-sort pipeline.
func TestSpMSpVBucketModeledFaster(t *testing.T) {
	shapes := []struct {
		name string
		d    float64
		f    float64
	}{
		{"d16-f2", 16, 0.02},
		{"d4-f2", 4, 0.02},
		{"d16-f20", 16, 0.20},
	}
	const n = 100_000
	for _, s := range shapes {
		a := sparse.ErdosRenyi[int64](n, s.d, 604)
		x := sparse.RandomVec[int64](n, int(float64(n)*s.f), 605)
		for _, threads := range []int{1, 24} {
			rtM := newRT(t, 1, threads)
			_, _ = SpMSpVShm(a, x, ShmConfig{Threads: threads, Engine: EngineMergeSort, Sim: rtM.S})
			rtB := newRT(t, 1, threads)
			_, _ = SpMSpVShm(a, x, ShmConfig{Threads: threads, Engine: EngineBucket, Sim: rtB.S})
			if rtB.S.Elapsed() >= rtM.S.Elapsed() {
				t.Errorf("%s threads=%d: bucket %.3fms not below merge sort %.3fms",
					s.name, threads, rtB.S.Elapsed()/1e6, rtM.S.Elapsed()/1e6)
			}
		}
	}
}

// TestSpMSpVDistBulkGatherMessageCounts verifies the communication-avoiding
// claim: the bulk gather/scatter charge O(P) bulk transfers where the
// fine-grained path charges O(nnz) per-element operations, and the modeled
// gather phase gets strictly cheaper at 16 nodes.
func TestSpMSpVDistBulkGatherMessageCounts(t *testing.T) {
	const p = 16
	a0 := sparse.ErdosRenyi[int64](20_000, 16, 606)
	x0 := sparse.RandomVec[int64](20_000, 400, 607)

	rtF := newRT(t, p, 24)
	aF := dist.MatFromCSR(rtF, a0)
	xF := dist.SpVecFromVec(rtF, x0)
	_, _ = SpMSpVDist(rtF, aF, xF)

	rtB := newRT(t, p, 24)
	aB := dist.MatFromCSR(rtB, a0)
	xB := dist.SpVecFromVec(rtB, x0)
	if _, _, err := SpMSpVDistBulk(rtB, aB, xB); err != nil {
		t.Fatal(err)
	}

	// At most one bulk transfer per ordered locale pair per direction for the
	// gather plus one per pair for the scatter: < 2·P².
	if got, lim := rtB.S.Traffic().BulkOps, int64(2*p*p); got >= lim {
		t.Errorf("bulk path used %d bulk transfers, want < %d (O(P^2) pairs)", got, lim)
	}
	if got := rtB.S.Traffic().FineOps; got != 0 {
		t.Errorf("bulk path charged %d fine-grained remote ops, want 0", got)
	}
	if fine := rtF.S.Traffic().FineOps; fine <= int64(2*p*p) {
		t.Errorf("fine-grained path charged only %d element ops — workload too small to compare", fine)
	}
	gF, gB := phaseNS(rtF.S, "Gather Input"), phaseNS(rtB.S, "Gather Input")
	if gB >= gF {
		t.Errorf("bulk gather %.3fms not below fine-grained gather %.3fms", gB/1e6, gF/1e6)
	}
}

// TestSpMSpVDistEmptySourceChargesNothing pins the gather fix: a source
// locale holding no vector elements must not be charged remote-domain
// metadata messages. On a 1x2 grid with x = {0} living on locale 0, the only
// remote traffic is locale 1 gathering that single element (1 element + 6
// metadata accesses); before the fix the empty locale 1 also charged 6
// metadata messages to locale 0's gather.
func TestSpMSpVDistEmptySourceChargesNothing(t *testing.T) {
	g, err := locale.NewGridShape(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt := locale.NewWithGrid(machine.Edison(), g, 24)
	a0, err := sparse.CSRFromTriplets(8, 8, []int{0}, []int{0}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	x0, err := sparse.VecOf(8, []int{0}, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	a := dist.MatFromCSR(rt, a0)
	x := dist.SpVecFromVec(rt, x0)
	y, _ := SpMSpVDist(rt, a, x)
	if y.NNZ() != 1 {
		t.Fatalf("got %d output elements, want 1", y.NNZ())
	}
	if got := rt.S.Traffic().Messages; got != 7 {
		t.Errorf("gather charged %d messages, want exactly 7 (1 element + 6 metadata)", got)
	}
}
