package core

import (
	"sync"
	"testing"

	"repro/internal/semiring"
	"repro/internal/sparse"
)

// TestWorkerPoolStressConcurrentKernels hammers one Runtime's persistent
// worker pool and scratch arena from many concurrent kernel calls, each itself
// fanning out over multiple workers. Run under -race (the Makefile's race
// target includes this package) it validates the tentpole's sharing contract:
// concurrent kernels may share a pool and an arena, because every checkout is
// call-private and the pool's job tickets are never recycled early.
//
// The bucket engine is deterministic for any worker count, so every result is
// checked against a sequentially computed reference — corruption from a shared
// buffer handed to two kernels at once shows up as a wrong answer even when
// the race detector is off.
func TestWorkerPoolStressConcurrentKernels(t *testing.T) {
	const goroutines = 8
	const reps = 20

	rt := newRT(t, 1, 24)
	rt.RealWorkers = 4
	a := sparse.ErdosRenyi[int64](3000, 6, 31)
	sr := semiring.PlusTimes[int64]()

	// Per-goroutine inputs and sequential references (no pool, no arena).
	xs := make([]*sparse.Vec[int64], goroutines)
	wantFW := make([]*sparse.Vec[int64], goroutines)
	wantSR := make([]*sparse.Vec[int64], goroutines)
	for i := range xs {
		xs[i] = sparse.RandomVec[int64](3000, 200+i*60, int64(40+i))
		wantFW[i], _ = SpMSpVShm(a, xs[i], ShmConfig{Threads: 24, Workers: 1, Engine: EngineBucket})
		wantSR[i], _ = SpMSpVShmSemiring(a, xs[i], sr, ShmConfig{Threads: 24, Workers: 1, Engine: EngineBucket})
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := ShmConfig{
				Threads: 24,
				Workers: rt.RealWorkers,
				Engine:  EngineBucket,
				Sim:     rt.S, // concurrent charging stresses the sim mutex too
				Pool:    rt.WP,
				Scratch: rt.Scratch,
			}
			for rep := 0; rep < reps; rep++ {
				y, _ := SpMSpVShm(a, xs[g], cfg)
				if !y.Equal(wantFW[g]) {
					t.Errorf("goroutine %d rep %d: concurrent SpMSpVShm differs from sequential reference", g, rep)
					return
				}
				sparse.PutVec(rt.Scratch, y)

				z, _ := SpMSpVShmSemiring(a, xs[g], sr, cfg)
				if !z.Equal(wantSR[g]) {
					t.Errorf("goroutine %d rep %d: concurrent SpMSpVShmSemiring differs from sequential reference", g, rep)
					return
				}
				sparse.PutVec(rt.Scratch, z)
			}
		}(g)
	}
	wg.Wait()
}

// TestScratchPoolStressMixedSizes interleaves checkouts of wildly different
// sizes from one arena across goroutines, verifying the free lists never hand
// the same buffer to two holders (each holder stamps its buffer and re-reads
// the stamps before returning it).
func TestScratchPoolStressMixedSizes(t *testing.T) {
	const goroutines = 8
	const reps = 200

	pool := sparse.NewScratchPool()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				n := 1 + (g*37+rep*101)%4096
				buf := sparse.GetSlice[int](pool, n)
				if len(buf) != n {
					t.Errorf("goroutine %d: GetInts(%d) returned len %d", g, n, len(buf))
					return
				}
				for i := range buf {
					buf[i] = g
				}
				for i := range buf {
					if buf[i] != g {
						t.Errorf("goroutine %d: buffer shared with another holder (saw %d)", g, buf[i])
						return
					}
				}
				sparse.PutSlice(pool, buf)
			}
		}(g)
	}
	wg.Wait()
}
