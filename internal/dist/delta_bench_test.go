package dist

import (
	"testing"

	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// The streaming microbenchmarks time the two halves of the ingest path:
// absorbing a mutation is an append into retained delta buffers (zero
// allocations), and a steady-state flush allocates only the new epoch — its
// state, Mat and block slice — and the dirty blocks it rewrites, with every
// transient from pooled scratch. core.TestEpochIngestZeroAllocSteadyState
// pins both counts.

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
	// Warm the delta buffers and the scratch pool to their steady-state
	// capacity, so the timed flushes allocate only what each new epoch holds.
	for w := 0; w < 2; w++ {
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
