package core

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/sparse"
)

// crashPlan crashes locale `lost` on the first transfer step.
func crashPlan(lost int) fault.Plan {
	return fault.Plan{Seed: 5, CrashLocale: lost, CrashStep: 0}
}

func maxBlockNNZ[T int64 | float64](m *dist.Mat[T]) int {
	most := 0
	for _, b := range m.Blocks {
		if b.NNZ() > most {
			most = b.NNZ()
		}
	}
	return most
}

func TestRecoverFailoverMovesAtMostTwoBlocks(t *testing.T) {
	// The acceptance bound: failover moves ≤ 2·nnz/P elements (the replica
	// refreshes of the two blocks whose chain crossed the dead locale), while
	// redistribution moves on the order of 2·nnz. Both counted from the
	// simulator's byte counters via the Recovery records.
	a0 := sparse.ErdosRenyi[int64](400, 8, 31)
	const lost = 3

	fo := newRT(t, 6, 24).WithFault(crashPlan(lost))
	fo.Recovery = fault.PolicyFailover
	mf := dist.MatFromCSR(fo, a0)
	dist.ReplicateMat(fo, mf)
	rec, rollback, err := Recover(fo, mf, lost)
	if err != nil {
		t.Fatal(err)
	}
	if !rollback {
		t.Error("failover is an exact policy: caller must roll back and replay")
	}
	if len(fo.Recoveries) != 1 {
		t.Fatalf("got %d recovery records, want 1", len(fo.Recoveries))
	}
	r := fo.Recoveries[0]
	if r.Policy != fault.PolicyFailover || r.Lost != lost || r.Host != (lost+1)%6 {
		t.Errorf("recovery record = %+v, want failover of locale %d onto %d", r, lost, (lost+1)%6)
	}
	movedElems := r.MovedBytes / dist.ReplicaElemBytes
	if cap := int64(2 * maxBlockNNZ(mf)); movedElems > cap {
		t.Errorf("failover moved %d elements, want ≤ 2·nnz/P ≈ %d", movedElems, cap)
	}
	if r.Accuracy() != 1 || r.RetainedNNZ != a0.NNZ() {
		t.Errorf("failover must retain everything, got %+v", r)
	}

	rd := newRT(t, 6, 24).WithFault(crashPlan(lost))
	md := dist.MatFromCSR(rd, a0)
	if _, _, err := Recover(rd, md, lost); err != nil {
		t.Fatal(err)
	}
	full := rd.Recoveries[0]
	if full.Policy != fault.PolicyRedistribute {
		t.Errorf("default policy = %v, want redistribute", full.Policy)
	}
	if full.MovedBytes < int64(a0.NNZ())*dist.ReplicaElemBytes {
		t.Errorf("redistribution moved %d bytes, want at least 16·nnz = %d",
			full.MovedBytes, int64(a0.NNZ())*dist.ReplicaElemBytes)
	}
	if r.MovedBytes*2 >= full.MovedBytes {
		t.Errorf("failover (%d bytes) should be far cheaper than redistribution (%d bytes)",
			r.MovedBytes, full.MovedBytes)
	}
	// The recovered matrices are bitwise-identical to the original.
	fb, err := rec.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !fb.Equal(a0) {
		t.Error("failover-recovered matrix differs from the original")
	}
}

func TestRecoverFailoverFallsBackWhenUnreplicated(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](120, 4, 33)
	rt := newRT(t, 4, 24).WithFault(crashPlan(1))
	rt.Recovery = fault.PolicyFailover
	m := dist.MatFromCSR(rt, a0) // deliberately not replicated
	if _, _, err := Recover(rt, m, 1); err != nil {
		t.Fatal(err)
	}
	if got := rt.Recoveries[0].Policy; got != fault.PolicyRedistribute {
		t.Errorf("recorded policy = %v, want the redistribute fallback", got)
	}
}

func TestRecoverBestEffortDropsBlockWithoutRollback(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](200, 6, 35)
	const lost = 2
	rt := newRT(t, 4, 24).WithFault(crashPlan(lost))
	rt.Recovery = fault.PolicyBestEffort
	m := dist.MatFromCSR(rt, a0)
	lostNNZ := m.Blocks[lost].NNZ()
	if lostNNZ == 0 {
		t.Fatal("test matrix needs a nonempty lost block")
	}
	rec, rollback, err := Recover(rt, m, lost)
	if err != nil {
		t.Fatal(err)
	}
	if rollback {
		t.Error("best effort must not request a rollback")
	}
	if rec.Blocks[lost].NNZ() != 0 {
		t.Error("best effort must drop the lost block")
	}
	r := rt.Recoveries[0]
	if r.Policy != fault.PolicyBestEffort || r.TotalNNZ != a0.NNZ() || r.RetainedNNZ != a0.NNZ()-lostNNZ {
		t.Errorf("recovery record = %+v, want retained %d of %d", r, a0.NNZ()-lostNNZ, a0.NNZ())
	}
	if acc := r.Accuracy(); acc <= 0 || acc >= 1 {
		t.Errorf("accuracy = %v, want in (0, 1)", acc)
	}
}

func TestRecoveryConfirmsDeathAndTimesDetection(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](100, 4, 37)
	const lost = 1
	rt := newRT(t, 4, 24).WithFault(crashPlan(lost))
	m := dist.MatFromCSR(rt, a0)
	if _, _, err := Recover(rt, m, lost); err != nil {
		t.Fatal(err)
	}
	if st := rt.Health.States()[lost]; st != health.Dead {
		t.Errorf("detector state after recovery = %v, want dead", st)
	}
	r := rt.Recoveries[0]
	if r.DetectNS < 0 || r.RepairNS <= 0 {
		t.Errorf("MTTR components detect=%v repair=%v, want non-negative detect and positive repair",
			r.DetectNS, r.RepairNS)
	}
	if r.MTTRNS() != r.DetectNS+r.RepairNS {
		t.Error("MTTR must be detect + repair")
	}
}
