package algorithms

import (
	"math"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// Policy chaos suite: the recovery-policy acceptance criteria. Failover must
// reproduce fault-free results bit for bit while moving ~2 blocks of data;
// best effort must keep running and account for the accuracy it gave up; the
// detector's timeline must be a pure function of the chaos seed.

// replicatedChaosRT builds a 6-locale chaotic runtime with the given policy
// and distributes a0 with replication on.
func replicatedChaosRT(t *testing.T, plan fault.Plan, pol fault.RecoveryPolicy, a0 *sparse.CSR[int64]) (*locale.Runtime, *dist.Mat[int64]) {
	t.Helper()
	rt := newRT(t, 6).WithFault(plan)
	rt.Recovery = pol
	m := dist.MatFromCSR(rt, a0)
	dist.ReplicateMat(rt, m)
	return rt, m
}

// checkOneRecovery asserts exactly one recovery ran under pol with sane MTTR
// accounting, and returns it.
func checkOneRecovery(t *testing.T, rt *locale.Runtime, pol fault.RecoveryPolicy) fault.Recovery {
	t.Helper()
	if len(rt.Recoveries) != 1 {
		t.Fatalf("got %d recovery records, want 1", len(rt.Recoveries))
	}
	r := rt.Recoveries[0]
	if r.Policy != pol {
		t.Errorf("recovery policy = %v, want %v", r.Policy, pol)
	}
	if r.DetectNS < 0 || r.RepairNS <= 0 {
		t.Errorf("detect=%v repair=%v, want non-negative detect and positive repair", r.DetectNS, r.RepairNS)
	}
	return r
}

func TestChaosFailoverBFSBitwiseIdentical(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](150, 5, 71)
	clean := newRT(t, 6)
	want, err := BFSDist(clean, dist.MatFromCSR(clean, a0), 3)
	if err != nil {
		t.Fatal(err)
	}
	chaotic, m := replicatedChaosRT(t, chaosPlan(), fault.PolicyFailover, a0)
	got, err := BFSDist(chaotic, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Level {
		if got.Level[v] != want.Level[v] || got.Parent[v] != want.Parent[v] {
			t.Fatalf("vertex %d: (level %d, parent %d), want (%d, %d)",
				v, got.Level[v], got.Parent[v], want.Level[v], want.Parent[v])
		}
	}
	checkChaos(t, clean, chaotic)
	checkOneRecovery(t, chaotic, fault.PolicyFailover)
}

func TestChaosFailoverSSSPBitwiseIdenticalAndCheap(t *testing.T) {
	a0f := sparse.ErdosRenyi[float64](140, 5, 75)
	clean := newRT(t, 6)
	want, wantRounds, err := SSSPDist(clean, dist.MatFromCSR(clean, a0f), 2)
	if err != nil {
		t.Fatal(err)
	}
	chaotic := newRT(t, 6).WithFault(chaosPlan())
	chaotic.Recovery = fault.PolicyFailover
	m := dist.MatFromCSR(chaotic, a0f)
	dist.ReplicateMat(chaotic, m)
	got, rounds, err := SSSPDist(chaotic, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != wantRounds {
		t.Errorf("rounds = %d, want %d", rounds, wantRounds)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want bitwise-identical %v", v, got[v], want[v])
		}
	}
	checkChaos(t, clean, chaotic)
	r := checkOneRecovery(t, chaotic, fault.PolicyFailover)

	// The byte bound, end to end: the failover moved at most two blocks.
	maxBlock := 0
	for _, b := range m.Blocks {
		if b.NNZ() > maxBlock {
			maxBlock = b.NNZ()
		}
	}
	if moved := r.MovedBytes / dist.ReplicaElemBytes; moved > int64(2*maxBlock) {
		t.Errorf("failover moved %d elements, want ≤ 2·nnz/P ≈ %d", moved, 2*maxBlock)
	}
}

func TestChaosFailoverPageRankBitwiseIdentical(t *testing.T) {
	a0f := sparse.ErdosRenyi[float64](120, 4, 77)
	clean := newRT(t, 6)
	want, wantIters, err := PageRankDist(clean, dist.MatFromCSR(clean, a0f), 0.85, 1e-8, 60)
	if err != nil {
		t.Fatal(err)
	}
	chaotic := newRT(t, 6).WithFault(chaosPlan())
	chaotic.Recovery = fault.PolicyFailover
	m := dist.MatFromCSR(chaotic, a0f)
	dist.ReplicateMat(chaotic, m) // PageRank carries replication over to its pattern matrix
	got, iters, err := PageRankDist(chaotic, m, 0.85, 1e-8, 60)
	if err != nil {
		t.Fatal(err)
	}
	if iters != wantIters {
		t.Errorf("iters = %d, want %d", iters, wantIters)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("rank[%d] = %v, want bitwise-identical %v", v, got[v], want[v])
		}
	}
	checkChaos(t, clean, chaotic)
	checkOneRecovery(t, chaotic, fault.PolicyFailover)
}

func TestChaosFailoverCCBitwiseIdentical(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](130, 3, 79)
	clean := newRT(t, 6)
	want, wantComps, err := CCDist(clean, dist.MatFromCSR(clean, a0))
	if err != nil {
		t.Fatal(err)
	}
	chaotic, m := replicatedChaosRT(t, chaosPlan(), fault.PolicyFailover, a0)
	got, comps, err := CCDist(chaotic, m)
	if err != nil {
		t.Fatal(err)
	}
	if comps != wantComps {
		t.Errorf("components = %d, want %d", comps, wantComps)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	checkChaos(t, clean, chaotic)
	checkOneRecovery(t, chaotic, fault.PolicyFailover)
}

func TestChaosBestEffortPageRankAccountsAccuracy(t *testing.T) {
	a0f := sparse.ErdosRenyi[float64](120, 4, 77)
	chaotic := newRT(t, 6).WithFault(chaosPlan())
	chaotic.Recovery = fault.PolicyBestEffort
	got, _, err := PageRankDist(chaotic, dist.MatFromCSR(chaotic, a0f), 0.85, 1e-8, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 120 {
		t.Fatalf("got %d ranks, want 120", len(got))
	}
	r := checkOneRecovery(t, chaotic, fault.PolicyBestEffort)
	if acc := r.Accuracy(); acc <= 0 || acc >= 1 {
		t.Errorf("accuracy = %v, want in (0, 1): best effort gave up the lost block", acc)
	}
	if r.RetainedNNZ >= r.TotalNNZ || r.TotalNNZ == 0 {
		t.Errorf("retained %d of %d nnz: the lost block must be accounted", r.RetainedNNZ, r.TotalNNZ)
	}
}

func TestDetectorTimelineDeterministicPerSeed(t *testing.T) {
	a0f := sparse.ErdosRenyi[float64](140, 5, 75)
	run := func() ([]float64, string) {
		rt := newRT(t, 6).WithFault(chaosPlan())
		if _, _, err := SSSPDist(rt, dist.MatFromCSR(rt, a0f), 2); err != nil {
			t.Fatal(err)
		}
		var times []float64
		desc := ""
		for _, e := range rt.Health.Events() {
			times = append(times, e.AtNS)
			desc += e.From.String() + ">" + e.To.String() + ";"
		}
		return times, desc
	}
	t1, d1 := run()
	t2, d2 := run()
	if d1 != d2 || len(t1) != len(t2) {
		t.Fatalf("replay produced a different transition sequence: %q vs %q", d1, d2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("transition %d at %.0fns vs %.0fns: timeline must be deterministic per seed", i, t1[i], t2[i])
		}
	}
	if len(t1) == 0 {
		t.Fatal("a crashing chaos run must produce health transitions")
	}
}

// policyCase is one algorithm of the chaos policy matrix: run distributes
// its input on rt (with replicas when replicate is set), runs the algorithm
// and returns its round count and result values as bits, plus the nnz of the
// largest block.
type policyCase struct {
	name string
	run  func(t *testing.T, rt *locale.Runtime, replicate bool) (bits []uint64, maxBlock int)
}

// distributeFor distributes a0 on rt, with replicas when replicate is set,
// and returns it with the nnz of its largest block.
func distributeFor[T semiring.Number](rt *locale.Runtime, a0 *sparse.CSR[T], replicate bool) (*dist.Mat[T], int) {
	m := dist.MatFromCSR(rt, a0)
	if replicate {
		dist.ReplicateMat(rt, m)
	}
	maxBlock := 0
	for _, b := range m.Blocks {
		maxBlock = max(maxBlock, b.NNZ())
	}
	return m, maxBlock
}

// policyCases covers every algorithm on the round driver, on the inputs of
// the chaos acceptance tests.
func policyCases() []policyCase {
	bfs := func(mode bfsMode, alpha int, seed int64, source int) func(*testing.T, *locale.Runtime, bool) ([]uint64, int) {
		return func(t *testing.T, rt *locale.Runtime, replicate bool) ([]uint64, int) {
			m, maxBlock := distributeFor(rt, sparse.ErdosRenyi[int64](150, 5, seed), replicate)
			res, err := bfsDist(rt, m, source, mode, alpha)
			if err != nil {
				t.Fatal(err)
			}
			bits := []uint64{uint64(res.Rounds)}
			for v := range res.Level {
				bits = append(bits, uint64(res.Level[v]), uint64(res.Parent[v]))
			}
			return bits, maxBlock
		}
	}
	floatBits := func(rounds int, vals []float64) []uint64 {
		bits := []uint64{uint64(rounds)}
		for _, v := range vals {
			bits = append(bits, math.Float64bits(v))
		}
		return bits
	}
	return []policyCase{
		{"bfs", bfs(bfsPlain, 0, 71, 3)},
		{"bfs-masked", bfs(bfsMasked, 0, 73, 7)},
		// alpha = 14: the directions follow the frontier sizes alone, so
		// the chaotic run pulls and pushes in the clean run's rounds.
		{"dobfs", bfs(bfsDirOpt, 14, 81, 5)},
		{"sssp", func(t *testing.T, rt *locale.Runtime, replicate bool) ([]uint64, int) {
			m, maxBlock := distributeFor(rt, sparse.ErdosRenyi[float64](140, 5, 75), replicate)
			d, rounds, err := SSSPDist(rt, m, 2)
			if err != nil {
				t.Fatal(err)
			}
			return floatBits(rounds, d), maxBlock
		}},
		{"pagerank", func(t *testing.T, rt *locale.Runtime, replicate bool) ([]uint64, int) {
			m, maxBlock := distributeFor(rt, sparse.ErdosRenyi[float64](120, 4, 77), replicate)
			r, iters, err := PageRankDist(rt, m, 0.85, 1e-8, 60)
			if err != nil {
				t.Fatal(err)
			}
			return floatBits(iters, r), maxBlock
		}},
		{"cc", func(t *testing.T, rt *locale.Runtime, replicate bool) ([]uint64, int) {
			m, maxBlock := distributeFor(rt, sparse.ErdosRenyi[int64](130, 3, 79), replicate)
			labels, _, rounds, err := ccDistInit(rt, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			bits := []uint64{uint64(rounds)}
			for _, l := range labels {
				bits = append(bits, uint64(l))
			}
			return bits, maxBlock
		}},
	}
}

// TestChaosPolicyMatrix is the CI chaos-matrix entry point: CHAOS_SEED and
// CHAOS_POLICY select the cell. Without them it runs every policy at the
// default seed, so it is also exercised by a plain `go test`. Every algorithm
// on the round driver must recover exactly once; the exact policies must
// reproduce the clean run's values and round count bit for bit, failover
// moving at most two blocks, and best effort must account the block it lost.
func TestChaosPolicyMatrix(t *testing.T) {
	plan := chaosPlan()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		plan.Seed = v
	}
	pols := []fault.RecoveryPolicy{fault.PolicyRedistribute, fault.PolicyFailover, fault.PolicyBestEffort}
	if s := os.Getenv("CHAOS_POLICY"); s != "" {
		pol, err := fault.ParseRecoveryPolicy(s)
		if err != nil {
			t.Fatal(err)
		}
		pols = []fault.RecoveryPolicy{pol}
	}
	for _, pol := range pols {
		for _, c := range policyCases() {
			t.Run(c.name+"/"+pol.String(), func(t *testing.T) {
				clean := newRT(t, 6)
				want, _ := c.run(t, clean, false)
				chaotic := newRT(t, 6).WithFault(plan)
				chaotic.Recovery = pol
				got, maxBlock := c.run(t, chaotic, pol == fault.PolicyFailover)
				checkChaos(t, clean, chaotic)
				r := checkOneRecovery(t, chaotic, pol)
				t.Logf("seed=%d mttr=%.0fns moved=%dB", plan.Seed, r.MTTRNS(), r.MovedBytes)
				if pol == fault.PolicyBestEffort {
					if r.RetainedNNZ >= r.TotalNNZ {
						t.Errorf("retained %d of %d nnz: the lost block must be accounted", r.RetainedNNZ, r.TotalNNZ)
					}
					return
				}
				if !slices.Equal(got, want) {
					t.Errorf("seed %d: values or round count differ from the clean run's", plan.Seed)
				}
				if moved := r.MovedBytes / dist.ReplicaElemBytes; pol == fault.PolicyFailover && moved > int64(2*maxBlock) {
					t.Errorf("failover moved %d elements, want at most two blocks (%d)", moved, 2*maxBlock)
				}
			})
		}
	}
}
