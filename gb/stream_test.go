package gb

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sparse"
)

func streamCtx(t *testing.T, opts ...Option) *Context {
	t.Helper()
	ctx, err := New(append([]Option{Locales(4), Threads(4)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestStreamingMatrixLifecycle(t *testing.T) {
	ctx := streamCtx(t)
	a := sparse.ErdosRenyi[float64](64, 4, 7)
	s := StreamingMatrixFromCSR(ctx, a)
	if s.Epoch() != 0 || s.Pending() != 0 {
		t.Fatalf("fresh streaming matrix at epoch %d with %d pending", s.Epoch(), s.Pending())
	}

	// Mutate, pin a pre-commit reader, commit, and check isolation.
	pinned, pinnedEpoch := s.Matrix()
	nnzBefore := pinned.NNZ()
	if err := s.Update(3, 5, 42); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(3, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateBatch([]int{1, 2}, []int{2, 3}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", s.Pending())
	}
	epoch, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 || s.Epoch() != 1 || s.Stale() {
		t.Fatalf("after flush: epoch %d/%d stale %v, want 1/1 false", epoch, s.Epoch(), s.Stale())
	}
	if pinnedEpoch != 0 || pinned.NNZ() != nnzBefore {
		t.Fatalf("pinned epoch-%d reader changed under commit: nnz %d -> %d", pinnedEpoch, nnzBefore, pinned.NNZ())
	}
	m, _ := s.Matrix()
	if got, found := m.Get(1, 2); !found || got != 1 {
		t.Fatalf("committed (1,2) = %v/%v, want 1", got, found)
	}
	if _, found := m.Get(3, 5); found {
		t.Fatal("insert-then-delete within an epoch must resolve to absent")
	}

	// The committed snapshot is a full Matrix: operations run on it.
	if _, err := BFS(ctx, m, 0); err != nil {
		t.Fatalf("BFS over pinned epoch: %v", err)
	}
}

func TestStreamingAutoFlushPolicy(t *testing.T) {
	ctx := streamCtx(t, EpochPolicy{FlushEvery: 3})
	if got := ctx.EpochPolicy(); got.FlushEvery != 3 {
		t.Fatalf("policy = %+v", got)
	}
	s := StreamingMatrixFromCSR(ctx, sparse.ErdosRenyi[float64](32, 3, 5))
	for k := 0; k < 7; k++ {
		if err := s.Update(k, k, 1); err != nil {
			t.Fatal(err)
		}
	}
	// 7 mutations with FlushEvery=3: auto-commits at 3 and 6, one pending.
	if s.Epoch() != 2 || s.Pending() != 1 {
		t.Fatalf("epoch %d pending %d, want 2 and 1", s.Epoch(), s.Pending())
	}

	// The clone-based context deriver leaves the receiver untouched.
	base := streamCtx(t)
	derived := base.WithEpochPolicy(EpochPolicy{FlushEvery: 10})
	if base.EpochPolicy().FlushEvery != 0 || derived.EpochPolicy().FlushEvery != 10 {
		t.Fatal("WithEpochPolicy must configure the clone only")
	}

	// Invalid policies are rejected at New.
	if _, err := New(EpochPolicy{FlushEvery: -1}); err == nil {
		t.Fatal("negative FlushEvery accepted")
	}
}

// TestStreamingMutationValidation is the mutation-surface audit: every
// streaming entry point rejects out-of-domain coordinates and mismatched
// batches with the typed errors instead of panicking, and rejected
// mutations leave nothing pending.
func TestStreamingMutationValidation(t *testing.T) {
	ctx := streamCtx(t)
	s := StreamingMatrixFromCSR(ctx, sparse.ErdosRenyi[float64](16, 2, 3))
	cases := []struct {
		name string
		call func() error
		want error
	}{
		{"update row negative", func() error { return s.Update(-1, 0, 1) }, ErrIndexOutOfRange},
		{"update row high", func() error { return s.Update(16, 0, 1) }, ErrIndexOutOfRange},
		{"update col negative", func() error { return s.Update(0, -3, 1) }, ErrIndexOutOfRange},
		{"update col high", func() error { return s.Update(0, 99, 1) }, ErrIndexOutOfRange},
		{"delete row high", func() error { return s.Delete(20, 0) }, ErrIndexOutOfRange},
		{"delete col negative", func() error { return s.Delete(0, -1) }, ErrIndexOutOfRange},
		{"batch length mismatch", func() error {
			return s.UpdateBatch([]int{1, 2}, []int{1}, []float64{1, 2})
		}, ErrDimensionMismatch},
		{"batch vals mismatch", func() error {
			return s.UpdateBatch([]int{1}, []int{1}, nil)
		}, ErrDimensionMismatch},
		{"batch bad coordinate", func() error {
			return s.UpdateBatch([]int{1, 40}, []int{1, 2}, []float64{1, 2})
		}, ErrIndexOutOfRange},
	}
	for _, tc := range cases {
		err := tc.call()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("rejected mutations left %d pending", s.Pending())
	}
	if s.Epoch() != 0 {
		t.Fatalf("rejected mutations advanced the epoch to %d", s.Epoch())
	}

	// Non-square streaming algorithm calls fail typed.
	rect, err := sparse.CSRFromTriplets(4, 6, []int{0}, []int{1}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	sr := StreamingMatrixFromCSR(ctx, rect)
	if _, err := sr.IncrementalCC(nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("IncrementalCC on 4x6: err = %v, want dimension mismatch", err)
	}
	if _, err := sr.StreamingPageRank(0.85, 1e-8, 50, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("StreamingPageRank on 4x6: err = %v, want dimension mismatch", err)
	}
}

// TestStreamingBestEffortStaleServe drives a mid-merge crash through the gb
// surface under BestEffort: the flush reports the stale epoch it served, a
// recovery record carries the epoch accounting with full data retention, and
// the next flush catches up.
func TestStreamingBestEffortStaleServe(t *testing.T) {
	plan := FaultPlan{Seed: 3, CrashLocale: -1, MergeCrashLocale: 1, MergeCrashEpoch: 2}
	ctx := streamCtx(t, plan, WithRecoveryPolicy(BestEffort))
	s := StreamingMatrixFromCSR(ctx, sparse.ErdosRenyi[float64](48, 3, 9))

	if err := s.Update(1, 1, 5); err != nil {
		t.Fatal(err)
	}
	if ep, err := s.Flush(); err != nil || ep != 1 || s.Stale() {
		t.Fatalf("flush 1: epoch %d stale %v err %v", ep, s.Stale(), err)
	}
	// (2, 30) lands in locale 1's block on the 2x2 grid, so the planned
	// mid-merge crash of locale 1 fires during this commit.
	if err := s.Update(2, 30, 6); err != nil {
		t.Fatal(err)
	}
	ep, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if ep != 1 || !s.Stale() || s.StaleServes() != 1 {
		t.Fatalf("crashed flush: epoch %d stale %v serves %d, want stale epoch 1", ep, s.Stale(), s.StaleServes())
	}
	if s.Pending() != 1 {
		t.Fatalf("stale serve must keep the mutation pending, have %d", s.Pending())
	}
	recs := ctx.Recoveries()
	if len(recs) != 1 || recs[0].ServedEpoch != 1 || recs[0].AbortedEpoch != 2 {
		t.Fatalf("recoveries = %+v, want one with served/aborted 1/2", recs)
	}
	if recs[0].RetainedNNZ != recs[0].TotalNNZ {
		t.Fatalf("besteffort stale serve dropped data: retained %d/%d", recs[0].RetainedNNZ, recs[0].TotalNNZ)
	}
	// Catch-up: the next flush commits everything.
	if ep, err := s.Flush(); err != nil || ep != 2 || s.Stale() {
		t.Fatalf("catch-up flush: epoch %d stale %v err %v", ep, s.Stale(), err)
	}
	m, _ := s.Matrix()
	if v, ok := m.Get(2, 30); !ok || v != 6 {
		t.Fatalf("caught-up value (2,30) = %v/%v, want 6", v, ok)
	}
	if s.StaleServes() != 1 {
		t.Fatalf("stale serves = %d, want still 1", s.StaleServes())
	}
}

// TestIncrementalSSSPStamp: a streaming snapshot carries its epoch's stamp
// through WithContext, so a query context can warm-start from the previous
// answer; an unstamped matrix, another source and a newer state each run
// cold, a raise makes the next refresh cold, and every answer is SSSP's.
func TestIncrementalSSSPStamp(t *testing.T) {
	ctx := streamCtx(t)
	a := sparse.ErdosRenyi[float64](64, 4, 7)
	s := StreamingMatrixFromCSR(ctx, a)
	const src = 2
	check := func(what string, m *Matrix[float64], st *SSSPState[float64], wantWarm bool) {
		t.Helper()
		want, _, err := SSSP(m, src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if st.Dist[v] != want[v] {
				t.Fatalf("%s: vertex %d at %v, SSSP says %v", what, v, st.Dist[v], want[v])
			}
		}
		if st.Warm != wantWarm {
			t.Fatalf("%s: warm %v, want %v", what, st.Warm, wantWarm)
		}
	}

	m0, _ := s.Matrix()
	st0, err := IncrementalSSSP(m0, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("epoch 0", m0, st0, false)
	cols, vals := a.Row(src)
	if len(cols) == 0 {
		t.Fatal("the source has no out-edges")
	}
	if err := s.Update(src, cols[0], vals[0]-0.5); err != nil { // a lowering
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// A query context's view of the snapshot keeps the stamp.
	qctx := ctx.WithCancelContext(context.Background())
	m1, epoch := s.Matrix()
	view := m1.WithContext(qctx)
	st1, err := IncrementalSSSP(view, src, st0)
	if err != nil {
		t.Fatal(err)
	}
	check("epoch 1 through WithContext", view, st1, true)
	if st1.Epoch != epoch || st1.Rounds >= st0.Rounds {
		t.Fatalf("warm refresh at epoch %d (want %d) took %d rounds, the cold one %d", st1.Epoch, epoch, st1.Rounds, st0.Rounds)
	}

	unstamped := MatrixFromCSR(ctx, a)
	for what, run := range map[string]func() (*SSSPState[float64], *Matrix[float64], error){
		"an unstamped matrix": func() (*SSSPState[float64], *Matrix[float64], error) {
			st, err := IncrementalSSSP(unstamped, src, st0)
			return st, unstamped, err
		},
		"a newer state": func() (*SSSPState[float64], *Matrix[float64], error) {
			st, err := IncrementalSSSP(m0, src, st1)
			return st, m0, err
		},
	} {
		st, m, err := run()
		if err != nil {
			t.Fatal(err)
		}
		check(what, m, st, false)
	}
	other, err := IncrementalSSSP(m1, src+1, st1)
	if err != nil {
		t.Fatal(err)
	}
	if other.Warm {
		t.Fatal("another source's state seeded the run")
	}

	// A raise: the state no longer bounds the distances, so the next one is cold.
	if err := s.Update(src, cols[0], vals[0]+10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st2, err := s.IncrementalSSSP(src, st1)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := s.Matrix()
	check("after a raise", m2, st2, false)
	if _, err := IncrementalSSSP(m2, 64, st2); !errors.Is(err, ErrIndexOutOfRange) {
		t.Fatalf("out-of-range source: err = %v", err)
	}
}
