package algorithms

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// Differential suite for the fused (nonblocking) execution paths: every
// algorithm run with rt.Fusion must produce results bitwise
// identical to the eager per-op chains, across graph models, grid shapes and
// chaos seeds — and the fused modeled time must be strictly lower (fewer
// spawns, barriers and per-op collectives per round). PageRank and CC have no
// eager chain of their own: their SpMV update loop charges nothing, so both
// modes run the one fused loop body.

// fusedRT builds an eager/fused runtime pair over the same grid shape;
// oversub places all of p's locales on one node.
func fusedRT(t *testing.T, p int, oversub bool) (eager, fused *locale.Runtime) {
	t.Helper()
	build := func() *locale.Runtime {
		if oversub {
			g, err := locale.NewGridOnOneNode(p)
			if err != nil {
				t.Fatal(err)
			}
			return locale.NewWithGrid(machine.Edison(), g, 24)
		}
		rt, err := locale.New(machine.Edison(), p, 24)
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}
	eager = build()
	fused = build()
	fused.Fusion = true
	return eager, fused
}

// diffGraphs yields the ER and R-MAT inputs the suite runs on.
func diffGraphs(t *testing.T) map[string]*sparse.CSR[int64] {
	t.Helper()
	rmat, err := sparse.RMAT[int64](7, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*sparse.CSR[int64]{
		"er":   sparse.ErdosRenyi[int64](150, 5, 71),
		"rmat": rmat,
	}
}

func checkBFSEqual(t *testing.T, got, want *BFSResult) {
	t.Helper()
	if got.Rounds != want.Rounds {
		t.Errorf("rounds = %d, want %d", got.Rounds, want.Rounds)
	}
	for v := range want.Level {
		if got.Level[v] != want.Level[v] || got.Parent[v] != want.Parent[v] {
			t.Fatalf("vertex %d: (level %d, parent %d), want (%d, %d)",
				v, got.Level[v], got.Parent[v], want.Level[v], want.Parent[v])
		}
	}
}

// checkFusedFaster asserts the modeled-time win that justifies fusion.
func checkFusedFaster(t *testing.T, eager, fused *locale.Runtime) {
	t.Helper()
	if fused.S.Elapsed() >= eager.S.Elapsed() {
		t.Errorf("fused modeled time %.0fns, want < eager %.0fns",
			fused.S.Elapsed(), eager.S.Elapsed())
	}
}

func TestFusedBFSDistBitwise(t *testing.T) {
	for name, a0 := range diffGraphs(t) {
		for _, tc := range []struct {
			p       int
			oversub bool
		}{{3, false}, {7, false}, {13, false}, {7, true}} {
			eager, fused := fusedRT(t, tc.p, tc.oversub)
			want, err := BFSDist(eager, dist.MatFromCSR(eager, a0), 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BFSDist(fused, dist.MatFromCSR(fused, a0), 3)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(name, func(t *testing.T) {
				checkBFSEqual(t, got, want)
				checkFusedFaster(t, eager, fused)
			})
		}
	}
}

func TestFusedBFSDistMaskedBitwise(t *testing.T) {
	for name, a0 := range diffGraphs(t) {
		for _, p := range []int{3, 7, 13} {
			eager, fused := fusedRT(t, p, false)
			want, err := BFSDistMasked(eager, dist.MatFromCSR(eager, a0), 7)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BFSDistMasked(fused, dist.MatFromCSR(fused, a0), 7)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(name, func(t *testing.T) {
				checkBFSEqual(t, got, want)
				checkFusedFaster(t, eager, fused)
			})
		}
	}
}

func TestFusedSSSPDistBitwise(t *testing.T) {
	a0 := sparse.ErdosRenyi[float64](140, 5, 75)
	for _, tc := range []struct {
		p       int
		oversub bool
	}{{3, false}, {7, false}, {13, false}, {7, true}} {
		eager, fused := fusedRT(t, tc.p, tc.oversub)
		want, wantRounds, err := SSSPDist(eager, dist.MatFromCSR(eager, a0), 2)
		if err != nil {
			t.Fatal(err)
		}
		got, gotRounds, err := SSSPDist(fused, dist.MatFromCSR(fused, a0), 2)
		if err != nil {
			t.Fatal(err)
		}
		if gotRounds != wantRounds {
			t.Errorf("p=%d: rounds = %d, want %d", tc.p, gotRounds, wantRounds)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: dist[%d] = %v, want %v", tc.p, i, got[i], want[i])
			}
		}
		checkFusedFaster(t, eager, fused)
	}
}

// bfsHash is the FNV-64a hash of a BFS result's round count and its
// (level, parent) pairs, each as a little-endian int64.
func bfsHash(r *BFSResult) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(r.Rounds))
	for v := range r.Level {
		put(r.Level[v])
		put(r.Parent[v])
	}
	return h.Sum64()
}

// TestFusedShmBitwise pins the one-locale push round: on a 1×1 grid the
// fused round (core.FusedBFSRound) is the shared-memory SpMSpV on the whole
// matrix. DOBFS pinned to push on every engine, and DOBFS at alpha=14, must
// reproduce the levels, parents and round counts of the eager SpMSpVMasked +
// update chain the shared-memory push step once replaced. The hashes were
// recorded from that chain.
func TestFusedShmBitwise(t *testing.T) {
	want := map[string]uint64{"er": 0xed374422606593ee, "rmat": 0x4af64d16eef60925}
	dobfs := func(a0 *sparse.CSR[int64], eng core.Engine, in *inspect.Inspector, alpha int) *BFSResult {
		rt := newRT(t, 1)
		rt.Fusion, rt.ShmEngine, rt.Insp = true, int(eng), in
		res, err := BFSDirectionOptimizing(rt, dist.MatFromCSR(rt, a0), 3, alpha)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pushPin := func() *inspect.Inspector { return inspect.New(inspect.Strategy{Dir: inspect.DirPush}) }
	for name, a0 := range diffGraphs(t) {
		for _, eng := range []core.Engine{core.EngineBucket, core.EngineMergeSort, core.EngineRadixSort} {
			got := dobfs(a0, eng, pushPin(), 0)
			t.Run(name+"/"+eng.String(), func(t *testing.T) {
				if h := bfsHash(got); h != want[name] {
					t.Errorf("hash %#x, want %#x", h, want[name])
				}
			})
		}
		push := dobfs(a0, core.EngineBucket, pushPin(), 0)
		mixed := dobfs(a0, core.EngineBucket, nil, 14)
		t.Run(name+"/dobfs", func(t *testing.T) {
			for _, got := range []*BFSResult{push, mixed} {
				if h := bfsHash(got); h != want[name] {
					t.Errorf("hash %#x, want %#x", h, want[name])
				}
			}
		})
	}
}

// TestFusedChaosComposition runs the fused paths under the chaos plan: the
// fused round must compose with checkpoint/restart — a crash mid-run rolls
// back and replays to the exact fault-free fused (== eager) result.
func TestFusedChaosComposition(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](150, 5, 71)
	clean := newRT(t, 6)
	want, err := BFSDist(clean, dist.MatFromCSR(clean, a0), 3)
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range []int64{99, 7, 3} {
		plan := chaosPlan()
		plan.Seed = seed
		chaotic := newRT(t, 6).WithFault(plan)
		chaotic.Fusion = true
		got, err := BFSDist(chaotic, dist.MatFromCSR(chaotic, a0), 3)
		if err != nil {
			t.Fatal(err)
		}
		checkBFSEqual(t, got, want)
		if st := chaotic.Fault.Stats(); st.Crashes != 1 {
			t.Errorf("seed %d: crashes = %d, want exactly 1", seed, st.Crashes)
		}
		if chaotic.G.Host == nil {
			t.Errorf("seed %d: locale loss never recovered", seed)
		}
	}

	af := sparse.ErdosRenyi[float64](140, 5, 75)
	cleanS := newRT(t, 6)
	wantD, wantRounds, err := SSSPDist(cleanS, dist.MatFromCSR(cleanS, af), 2)
	if err != nil {
		t.Fatal(err)
	}
	chaotic := newRT(t, 6).WithFault(chaosPlan())
	chaotic.Fusion = true
	gotD, gotRounds, err := SSSPDist(chaotic, dist.MatFromCSR(chaotic, af), 2)
	if err != nil {
		t.Fatal(err)
	}
	if gotRounds != wantRounds {
		t.Errorf("sssp rounds = %d, want %d", gotRounds, wantRounds)
	}
	for i := range wantD {
		if gotD[i] != wantD[i] {
			t.Fatalf("sssp dist[%d] = %v, want %v", i, gotD[i], wantD[i])
		}
	}
}

// TestFusedEpochComposition checks fusion composes with the streaming epoch
// layer: after mutation batches and flushes, algorithms on the committed
// snapshot give identical results fused and eager.
func TestFusedEpochComposition(t *testing.T) {
	a0 := sparse.ErdosRenyi[float64](120, 4, 31)
	run := func(fusion bool) (*BFSResult, uint64) {
		rt, err := locale.New(machine.Edison(), 6, 24)
		if err != nil {
			t.Fatal(err)
		}
		rt.Fusion = fusion
		em := dist.NewEpochMat(dist.MatFromCSR(rt, a0))
		for k := 1; k <= 3; k++ {
			applyEpochBatch(t, em, 17, k)
			if _, _, err := core.FlushEpoch(rt, em); err != nil {
				t.Fatal(err)
			}
		}
		snap, epoch := em.Snapshot()
		res, err := BFSDist(rt, snap, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res, epoch
	}
	want, wantEpoch := run(false)
	got, gotEpoch := run(true)
	if gotEpoch != wantEpoch {
		t.Fatalf("epoch = %d, want %d", gotEpoch, wantEpoch)
	}
	checkBFSEqual(t, got, want)
}
