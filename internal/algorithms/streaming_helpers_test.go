package algorithms

import (
	"repro/internal/dist"
	"repro/internal/locale"
	"repro/internal/semiring"
)

// IncrementalSSSP computes single-source shortest paths from source at em's
// committed epoch, warm-started from prev when IncrementalSSSPAt allows it.
func IncrementalSSSP[T semiring.Number](rt *locale.Runtime, em *dist.EpochMat[T], source int, prev *SSSPState[T]) (*SSSPState[T], error) {
	mat, stamp := em.Pinned()
	return IncrementalSSSPAt(rt, mat, stamp, source, prev)
}
