package dist

import (
	"testing"

	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// The streaming microbenchmarks pin the zero-allocation claim of the ingest
// path: absorbing a mutation is an append into retained delta buffers, and a
// steady-state flush reuses recycled epoch states, recycled block buffers and
// pooled scratch. core.TestEpochIngestZeroAllocSteadyState pins both at
// zero allocs/op.

func benchEpochMat(b *testing.B, p int) (*locale.Runtime, *EpochMat[float64]) {
	b.Helper()
	rt, err := locale.New(machine.Edison(), p, 24)
	if err != nil {
		b.Fatal(err)
	}
	a := sparse.ErdosRenyi[float64](256, 8, 1)
	return rt, NewEpochMat(MatFromCSR(rt, a))
}

// absorbBatch absorbs a fixed deterministic batch of 64 mutations.
func absorbBatch(b *testing.B, em *EpochMat[float64], round int) {
	b.Helper()
	for k := 0; k < 64; k++ {
		i, j := (k*7+round)%256, (k*13+3*round)%256
		var err error
		if k%8 == 0 {
			err = em.Delete(i, j)
		} else {
			err = em.Update(i, j, float64(k))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpochAbsorb(b *testing.B) {
	_, em := benchEpochMat(b, 4)
	absorbBatch(b, em, 0) // warm the delta buffers to steady-state capacity
	em.DiscardPending()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		absorbBatch(b, em, 0)
		em.DiscardPending()
	}
}

func BenchmarkDeltaMerge(b *testing.B) {
	rt, em := benchEpochMat(b, 4)
	// Warm past the history window so flushes recycle epoch states and block
	// buffers instead of allocating.
	for w := 0; w < 2*DefaultHistoryDepth+1; w++ {
		absorbBatch(b, em, 0)
		if _, err := em.Flush(rt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		absorbBatch(b, em, 0)
		if _, err := em.Flush(rt); err != nil {
			b.Fatal(err)
		}
	}
}
