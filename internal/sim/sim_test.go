package sim

import (
	"math"
	"sync"
	"testing"

	"repro/internal/machine"
)

func testMachine() machine.Machine {
	m := machine.Edison()
	return m
}

func TestComputeTimeRoofline(t *testing.T) {
	s := New(testMachine(), 1)
	// Pure CPU kernel: time scales inversely with threads up to core count.
	k := Kernel{Items: 1_000_000, CPUPerItem: 10}
	t1 := s.ComputeTime(1, k)
	t24 := s.ComputeTime(24, k)
	if t1 != 1e7 {
		t.Errorf("1-thread CPU time = %v, want 1e7", t1)
	}
	speedup := t1 / t24
	if speedup < 15 || speedup > 24 {
		t.Errorf("CPU-bound speedup = %.1f, want near-linear (15-24)", speedup)
	}
	// Threads beyond the core count do not help.
	t48 := s.ComputeTime(48, k)
	if t48 < t24*0.9 {
		t.Errorf("48 threads (%.0f) should not beat 24 (%.0f) on 24 cores", t48, t24)
	}
}

func TestComputeTimeMemoryBound(t *testing.T) {
	s := New(testMachine(), 1)
	// Heavy memory traffic: speedup capped by MemBWNode/MemBWCore ≈ 6.
	k := Kernel{Items: 1_000_000, CPUPerItem: 1, BytesPerItem: 64}
	t1 := s.ComputeTime(1, k)
	t24 := s.ComputeTime(24, k)
	speedup := t1 / t24
	cap := s.M.MemBWNode / s.M.MemBWCore
	if speedup > cap*1.2 {
		t.Errorf("memory-bound speedup %.1f exceeds bandwidth cap %.1f", speedup, cap)
	}
	if speedup < cap*0.5 {
		t.Errorf("memory-bound speedup %.1f too low (cap %.1f)", speedup, cap)
	}
}

func TestComputeTimeAtomicsSerialize(t *testing.T) {
	s := New(testMachine(), 1)
	k := Kernel{Items: 1_000_000, CPUPerItem: 5, AtomicsPerItem: 1}
	t1 := s.ComputeTime(1, k)
	t24 := s.ComputeTime(24, k)
	// The atomic term (items * AtomicOp) is identical at both thread counts.
	atomicNS := float64(k.Items) * s.M.AtomicOp
	if t24 < atomicNS {
		t.Errorf("24-thread time %v below serialized atomic floor %v", t24, atomicNS)
	}
	if sp := t1 / t24; sp > 24 {
		t.Errorf("atomic kernel speedup %.1f impossibly high", sp)
	}
}

func TestComputeSpawnOverheadDominatesSmall(t *testing.T) {
	s := New(testMachine(), 1)
	// Tiny kernel: multithreaded version pays spawn and loses.
	k := Kernel{Items: 10, CPUPerItem: 10}
	if s.ComputeTime(24, k) <= s.ComputeTime(1, k) {
		t.Error("spawn overhead should make 24 threads slower on 10 items")
	}
}

func TestFineGrainedVsBulk(t *testing.T) {
	s := New(testMachine(), 2)
	elems := int64(100_000)
	fine := s.FineGrainedTime(RemoteOpts{Msgs: elems, BytesPerMsg: 8, Overlap: 8})
	bulk := s.BulkTime(elems*8, false)
	if fine < 100*bulk {
		t.Errorf("fine-grained (%.0f) should be orders of magnitude above bulk (%.0f)", fine, bulk)
	}
}

func TestFineGrainedIncast(t *testing.T) {
	s := New(testMachine(), 4)
	base := s.FineGrainedTime(RemoteOpts{Msgs: 1000, BytesPerMsg: 8, Overlap: 8})
	congested := s.FineGrainedTime(RemoteOpts{Msgs: 1000, BytesPerMsg: 8, Overlap: 8, Contenders: 8})
	if congested <= base {
		t.Error("incast contention should raise latency")
	}
}

func TestIntraNodeOversubscription(t *testing.T) {
	s := New(testMachine(), 4)
	one := s.FineGrainedTime(RemoteOpts{Msgs: 1000, BytesPerMsg: 8, Overlap: 1, IntraNode: true, ColocatedLocales: 1})
	many := s.FineGrainedTime(RemoteOpts{Msgs: 1000, BytesPerMsg: 8, Overlap: 1, IntraNode: true, ColocatedLocales: 32})
	if many < 10*one {
		t.Errorf("32-way oversubscription (%.0f) should be much slower than 1 (%.0f)", many, one)
	}
}

func TestClocksAndBarrier(t *testing.T) {
	s := New(testMachine(), 3)
	s.Advance(0, 100)
	s.Advance(1, 500)
	s.Advance(2, 200)
	if got := s.Elapsed(); got != 500 {
		t.Errorf("Elapsed = %v, want 500 (max clock)", got)
	}
	s.Barrier()
	want := 500 + s.M.BarrierLatency*math.Log2(3)
	if got := s.Elapsed(); math.Abs(got-want) > 1e-6 {
		t.Errorf("post-barrier Elapsed = %v, want %v", got, want)
	}
	if s.Traffic().Barriers != 1 {
		t.Error("barrier not counted")
	}
}

func TestPhases(t *testing.T) {
	s := New(testMachine(), 2)
	s.BeginPhase("gather")
	s.Advance(0, 1000)
	s.Advance(1, 3000)
	s.BeginPhase("multiply") // implicitly ends "gather"
	s.Advance(0, 5000)
	s.EndPhase()
	phases := s.Phases()
	if len(phases) != 2 {
		t.Fatalf("recorded %d phases, want 2", len(phases))
	}
	if phases[0].Name != "gather" || phases[1].Name != "multiply" {
		t.Fatalf("phase names wrong: %+v", phases)
	}
	// Gather makespan is the max of the two locales' work plus barrier cost.
	if phases[0].NS < 3000 {
		t.Errorf("gather phase %v shorter than its slowest locale", phases[0].NS)
	}
	if phases[1].NS < 5000 {
		t.Errorf("multiply phase = %v, want >= 5000", phases[1].NS)
	}
}

func TestCoforallSpawnSerialChain(t *testing.T) {
	m := testMachine()
	s1 := New(m, 1)
	s1.CoforallSpawn()
	if got := s1.Elapsed(); got != m.TaskSpawn {
		t.Errorf("single-locale coforall = %v, want %v", got, m.TaskSpawn)
	}
	s64 := New(m, 64)
	s64.CoforallSpawn()
	// Tree fan-out: depth log2(64) = 6 launches on the critical path.
	if got := s64.Elapsed(); got < m.RemoteTaskSpawn*6 {
		t.Errorf("64-locale coforall = %v, want >= %v", got, m.RemoteTaskSpawn*6)
	}
	if got := s64.Elapsed(); got > m.RemoteTaskSpawn*6+m.BarrierLatency*12 {
		t.Errorf("64-locale coforall = %v, should be tree-structured (~%v)", got, m.RemoteTaskSpawn*6)
	}
}

func TestResetAndCounters(t *testing.T) {
	s := New(testMachine(), 2)
	s.FineGrained(0, RemoteOpts{Msgs: 10, BytesPerMsg: 8})
	s.Bulk(1, 4096, false)
	c := s.Traffic()
	if c.Messages != 11 || c.FineOps != 10 || c.BulkOps != 1 {
		t.Errorf("counters wrong: %+v", c)
	}
	if c.Bytes != 10*8+4096 {
		t.Errorf("bytes = %d", c.Bytes)
	}
	s.Reset()
	if s.Elapsed() != 0 || s.Traffic().Messages != 0 || len(s.Phases()) != 0 {
		t.Error("reset incomplete")
	}
}

func TestConcurrentCharging(t *testing.T) {
	// Charging from many goroutines must be race-free and sum correctly.
	s := New(testMachine(), 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Advance(w%4, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := s.Elapsed(); got != 2000 {
		t.Errorf("per-locale accumulation = %v, want 2000", got)
	}
}

func TestSimString(t *testing.T) {
	s := New(testMachine(), 2)
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestPhasesAccountForElapsed(t *testing.T) {
	// With every charge inside phases, the phase sum equals the elapsed time
	// (barrier costs at phase boundaries are included in the phase spans).
	s := New(testMachine(), 4)
	s.BeginPhase("a")
	s.Advance(0, 1e6)
	s.Advance(3, 2e6)
	s.BeginPhase("b")
	s.Compute(1, 4, Kernel{Items: 1000, CPUPerItem: 100})
	s.EndPhase()
	var sum float64
	for _, ph := range s.Phases() {
		sum += ph.NS
	}
	if el := s.Elapsed(); sum > el || sum < el*0.5 {
		t.Errorf("phase sum %.0f vs elapsed %.0f: phases should cover most of the clock", sum, el)
	}
}

func TestEndPhaseWithoutBegin(t *testing.T) {
	s := New(testMachine(), 2)
	s.EndPhase() // must be a no-op, not a panic
	if len(s.Phases()) != 0 {
		t.Error("phantom phase recorded")
	}
}
