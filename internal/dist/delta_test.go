package dist

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sparse"
)

// oracleKey identifies one matrix coordinate in the from-scratch oracle.
type oracleKey struct{ i, j int }

// oracleCSR rebuilds the expected matrix from a coordinate map.
func oracleCSR(t *testing.T, n int, m map[oracleKey]float64) *sparse.CSR[float64] {
	t.Helper()
	coo := sparse.NewCOO[float64](n, n)
	for k, v := range m {
		coo.Append(k.i, k.j, v)
	}
	csr, err := coo.ToCSR(func(a, b float64) float64 { return b })
	if err != nil {
		t.Fatal(err)
	}
	return csr
}

// oracleFromCSR seeds the oracle map with a matrix's entries.
func oracleFromCSR(a *sparse.CSR[float64]) map[oracleKey]float64 {
	m := make(map[oracleKey]float64)
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			m[oracleKey{i, j}] = vals[k]
		}
	}
	return m
}

func checkCommitted(t *testing.T, em *EpochMat[float64], oracle map[oracleKey]float64, n int) {
	t.Helper()
	mat := em.Committed()
	if err := mat.Validate(); err != nil {
		t.Fatalf("committed matrix invalid: %v", err)
	}
	got, err := mat.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleCSR(t, n, oracle); !got.Equal(want) {
		t.Fatalf("committed matrix differs from oracle: got nnz=%d want nnz=%d", got.NNZ(), want.NNZ())
	}
}

func TestEpochMatMergeAgainstOracle(t *testing.T) {
	const n = 61
	for _, p := range []int{1, 3, 4, 6} {
		a := sparse.ErdosRenyi[float64](n, 5, 17)
		rt := newRT(t, p)
		em := NewEpochMat(MatFromCSR(rt, a))
		oracle := oracleFromCSR(a)

		if em.Epoch() != 0 {
			t.Fatalf("p=%d: fresh epoch = %d, want 0", p, em.Epoch())
		}
		// Epoch 1: inserts, overwrites, deletes (present and absent),
		// duplicate coordinates resolving last-wins.
		type op struct {
			i, j int
			v    float64
			del  bool
		}
		ops := []op{
			{2, 3, 1.5, false}, {2, 3, 2.5, false}, // duplicate: last wins
			{0, 0, 9, false},
			{n - 1, n - 1, 4, false},
			{5, 7, 1, false}, {5, 7, 0, true}, // insert then delete: gone
			{8, 2, 0, true}, {8, 2, 3, false}, // delete then insert: present
			{40, 40, 0, true}, // delete (maybe absent): no-op either way
		}
		// Overwrites of stored values, judged by their last write: lower then
		// raise (a raise), raise then lower (not one), an equal rewrite (not
		// one), a plain raise.
		for r, deltas := range [][]float64{{-1, 1}, {5, -0.5}, {0}, {3}} {
			i := 20 + r
			cols, vals := a.Row(i)
			if len(cols) == 0 {
				t.Fatalf("row %d of the test graph is empty", i)
			}
			for _, dv := range deltas {
				ops = append(ops, op{i, cols[0], vals[0] + dv, false})
			}
		}
		// The oracle's raise count: every coordinate whose last write is an
		// update, stored before the epoch with a value the update is not <=.
		last := map[oracleKey]op{}
		for _, o := range ops {
			last[oracleKey{o.i, o.j}] = o
		}
		wantRaises := uint64(0)
		for k, o := range last {
			if old, stored := oracle[k]; stored && !o.del && !(o.v <= old) {
				wantRaises++
			}
		}
		for _, o := range ops {
			var err error
			if o.del {
				err = em.Delete(o.i, o.j)
				delete(oracle, oracleKey{o.i, o.j})
			} else {
				err = em.Update(o.i, o.j, o.v)
				oracle[oracleKey{o.i, o.j}] = o.v
			}
			if err != nil {
				t.Fatalf("p=%d: absorb: %v", p, err)
			}
		}
		// Delete every entry of one existing row to exercise row emptying.
		cols, _ := a.Row(10)
		for _, j := range cols {
			if err := em.Delete(10, j); err != nil {
				t.Fatal(err)
			}
			delete(oracle, oracleKey{10, j})
		}
		if em.Pending() == 0 {
			t.Fatalf("p=%d: pending = 0 after absorbs", p)
		}
		ep, err := em.Flush(rt)
		if err != nil {
			t.Fatalf("p=%d: flush: %v", p, err)
		}
		if ep != 1 || em.Epoch() != 1 {
			t.Fatalf("p=%d: epoch = %d/%d, want 1", p, ep, em.Epoch())
		}
		if em.Pending() != 0 {
			t.Fatalf("p=%d: pending = %d after flush", p, em.Pending())
		}
		checkCommitted(t, em, oracle, n)
		if wantRaises < 2 {
			t.Fatalf("p=%d: the oracle counts %d raises: the test tests too little", p, wantRaises)
		}
		if got := em.CommittedRaises(); got != wantRaises {
			t.Fatalf("p=%d: CommittedRaises = %d, oracle %d", p, got, wantRaises)
		}
		_, stamp := em.Pinned()
		if stamp.Epoch != 1 || stamp.Raises != wantRaises || stamp.Deletes != em.CommittedDeletes() {
			t.Fatalf("p=%d: stamp %+v disagrees with the committed epoch", p, stamp)
		}
	}
}

// TestEpochMatRaisesJudgeNaN: a NaN on either side of an overwrite is a raise
// (nothing is <= NaN, and NaN is <= nothing), and a merge with no overwrite of
// a stored value leaves the count alone.
func TestEpochMatRaisesJudgeNaN(t *testing.T) {
	a := sparse.ErdosRenyi[float64](30, 4, 3)
	rt := newRT(t, 4)
	em := NewEpochMat(MatFromCSR(rt, a))
	cols, _ := a.Row(4)
	if len(cols) == 0 {
		t.Fatal("row 4 of the test graph is empty")
	}
	for k, v := range []float64{math.NaN(), 1, 1, -5} {
		if err := em.Update(4, cols[0], v); err != nil {
			t.Fatal(err)
		}
		if _, err := em.Flush(rt); err != nil {
			t.Fatal(err)
		}
		want := []uint64{1, 2, 2, 2}[k] // into NaN, out of NaN, equal, lower
		if got := em.CommittedRaises(); got != want {
			t.Fatalf("write %d (%v): CommittedRaises = %d, want %d", k, v, got, want)
		}
	}
}

// TestStampExtends: a stamp extends an earlier one of the same matrix only
// while no delete and no raise was merged in between.
func TestStampExtends(t *testing.T) {
	a, err := sparse.CSRFromTriplets(8, 8, []int{0, 1, 2}, []int{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, 4)
	em := NewEpochMat(MatFromCSR(rt, a))
	_, s0 := em.Pinned()
	_, other := NewEpochMat(MatFromCSR(rt, a)).Pinned()
	step := func(mutate func() error) Stamp {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		if _, err := em.Flush(rt); err != nil {
			t.Fatal(err)
		}
		_, s := em.Pinned()
		return s
	}
	s1 := step(func() error { return em.Update(0, 1, 2) }) // a lowering
	s2 := step(func() error { return em.Update(5, 6, 9) }) // an insert
	s3 := step(func() error { return em.Update(0, 1, 3) }) // a raise
	s4 := step(func() error { return em.Update(0, 1, 1) }) // a lowering
	s5 := step(func() error { return em.Delete(7, 7) })    // a tombstone of an absent entry
	for _, c := range []struct {
		name    string
		s, prev Stamp
		want    bool
	}{
		{"the same epoch", s0, s0, true},
		{"after a lowering", s1, s0, true},
		{"after a lowering and an insert", s2, s0, true},
		{"across a raise", s3, s2, false},
		{"across a raise, from further back", s4, s0, false},
		{"after the raise, a lowering", s4, s3, true},
		{"across a tombstone", s5, s4, false},
		{"from a newer epoch", s1, s2, false},
		{"another matrix at the same counts", s0, other, false},
		{"the zero stamp", Stamp{}, Stamp{}, false},
		{"onto the zero stamp", s0, Stamp{}, false},
	} {
		if got := c.s.Extends(c.prev); got != c.want {
			t.Errorf("%s: %+v extends %+v = %v, want %v", c.name, c.s, c.prev, got, c.want)
		}
	}
}

func TestEpochMatManyEpochsAgainstOracle(t *testing.T) {
	const n = 53
	a := sparse.ErdosRenyi[float64](n, 4, 5)
	rt := newRT(t, 6)
	em := NewEpochMat(MatFromCSR(rt, a))
	oracle := oracleFromCSR(a)

	// A deterministic mutation stream over many epochs: every committed epoch
	// must match the from-scratch oracle.
	seed := uint64(12345)
	next := func(m uint64) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % m)
	}
	for round := 0; round < 12; round++ {
		for k := 0; k < 40; k++ {
			i, j := next(n), next(n)
			if next(10) < 3 {
				if err := em.Delete(i, j); err != nil {
					t.Fatal(err)
				}
				delete(oracle, oracleKey{i, j})
			} else {
				v := float64(next(1000)) + 0.5
				if err := em.Update(i, j, v); err != nil {
					t.Fatal(err)
				}
				oracle[oracleKey{i, j}] = v
			}
		}
		ep, err := em.Flush(rt)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if want := uint64(round + 1); ep != want {
			t.Fatalf("round %d: epoch = %d, want %d", round, ep, want)
		}
		checkCommitted(t, em, oracle, n)
	}
	if em.CommittedDeletes() == 0 {
		t.Fatal("cumulative delete counter never advanced")
	}
}

// blockCopy deep-copies every block of m, so a later comparison can tell
// whether anything wrote into the snapshot's storage.
func blockCopy(m *Mat[float64]) []*sparse.CSR[float64] {
	out := make([]*sparse.CSR[float64], len(m.Blocks))
	for l, b := range m.Blocks {
		out[l] = b.Clone()
	}
	return out
}

// sameBlockBits reports whether m's blocks equal want's bit for bit: shape,
// RowPtr, ColIdx and the bits of every value.
func sameBlockBits(m *Mat[float64], want []*sparse.CSR[float64]) bool {
	if len(m.Blocks) != len(want) {
		return false
	}
	for l, b := range m.Blocks {
		w := want[l]
		if b.NRows != w.NRows || b.NCols != w.NCols || !slices.Equal(b.RowPtr, w.RowPtr) ||
			!slices.Equal(b.ColIdx, w.ColIdx) || len(b.Val) != len(w.Val) {
			return false
		}
		for k, v := range b.Val {
			if math.Float64bits(v) != math.Float64bits(w.Val[k]) {
				return false
			}
		}
	}
	return true
}

// touchEveryBlock absorbs, for flush f, one overwrite and one tombstone in
// every block of m's grid, so the flush rewrites all of them.
func touchEveryBlock(t *testing.T, em *EpochMat[float64], f int) {
	t.Helper()
	m := em.Committed()
	for r := 0; r < m.G.Pr; r++ {
		for c := 0; c < m.G.Pc; c++ {
			i0, h := m.RowBands[r], m.RowBands[r+1]-m.RowBands[r]
			j0, w := m.ColBands[c], m.ColBands[c+1]-m.ColBands[c]
			if err := em.Update(i0+f%h, j0+(3*f)%w, float64(f)+0.5); err != nil {
				t.Fatal(err)
			}
			if err := em.Delete(i0+(f+1)%h, j0+(5*f+2)%w); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestEpochMatSnapshotIsolation(t *testing.T) {
	const n = 31
	a := sparse.ErdosRenyi[float64](n, 4, 7)
	rt := newRT(t, 4)
	em := NewEpochMat(MatFromCSR(rt, a))

	snap0, ep := em.Snapshot()
	if ep != 0 {
		t.Fatalf("snapshot epoch = %d, want 0", ep)
	}
	want0 := blockCopy(snap0)
	touchEveryBlock(t, em, 0)
	if _, err := em.Flush(rt); err != nil {
		t.Fatal(err)
	}
	snap1, ep := em.Snapshot()
	if ep != 1 || snap1 == snap0 {
		t.Fatalf("committed snapshot did not advance (epoch %d)", ep)
	}
	want1 := blockCopy(snap1)

	// Both pinned snapshots — the caller-supplied epoch 0 and the merged
	// epoch 1 — must stay untouched, bit for bit, however many later commits
	// rewrite every block.
	for f := 1; f <= 12; f++ {
		touchEveryBlock(t, em, f)
		if _, err := em.Flush(rt); err != nil {
			t.Fatal(err)
		}
		if !sameBlockBits(snap0, want0) {
			t.Fatalf("held epoch-0 snapshot changed after flush %d", f+1)
		}
		if !sameBlockBits(snap1, want1) {
			t.Fatalf("held epoch-1 snapshot changed after flush %d", f+1)
		}
	}
	if err := snap1.Validate(); err != nil {
		t.Fatalf("held snapshot invalid: %v", err)
	}
	if got := em.Epoch(); got != 13 {
		t.Fatalf("epoch = %d after 13 flushes", got)
	}
}

func TestEpochMatValidatesCoordinates(t *testing.T) {
	a := sparse.ErdosRenyi[float64](20, 3, 1)
	rt := newRT(t, 4)
	em := NewEpochMat(MatFromCSR(rt, a))
	for _, bad := range [][2]int{{-1, 0}, {20, 0}, {0, -1}, {0, 20}} {
		if err := em.Update(bad[0], bad[1], 1); err == nil {
			t.Fatalf("Update(%d,%d) accepted out-of-range coordinates", bad[0], bad[1])
		}
		if err := em.Delete(bad[0], bad[1]); err == nil {
			t.Fatalf("Delete(%d,%d) accepted out-of-range coordinates", bad[0], bad[1])
		}
	}
	if err := em.UpdateBatch([]int{1, 2}, []int{3}, []float64{1, 2}); err == nil {
		t.Fatal("UpdateBatch accepted mismatched slice lengths")
	}
	if em.Pending() != 0 {
		t.Fatalf("rejected mutations were absorbed: pending = %d", em.Pending())
	}
}

func TestEpochMatEmptyFlushAndDiscard(t *testing.T) {
	a := sparse.ErdosRenyi[float64](20, 3, 2)
	rt := newRT(t, 4)
	em := NewEpochMat(MatFromCSR(rt, a))
	ep, err := em.Flush(rt)
	if err != nil || ep != 0 {
		t.Fatalf("empty flush = (%d, %v), want (0, nil)", ep, err)
	}
	if err := em.Update(1, 1, 5); err != nil {
		t.Fatal(err)
	}
	em.DiscardPending()
	if em.Pending() != 0 {
		t.Fatal("DiscardPending left mutations pending")
	}
	ep, err = em.Flush(rt)
	if err != nil || ep != 0 {
		t.Fatalf("flush after discard = (%d, %v), want (0, nil)", ep, err)
	}
	if _, ok := em.Committed().Get(1, 1); ok {
		t.Fatal("discarded mutation reached the committed matrix")
	}
}

func TestEpochMatReplicaRefreshPerEpoch(t *testing.T) {
	const n = 47
	a := sparse.ErdosRenyi[float64](n, 4, 9)
	rt := newRT(t, 6)
	m := MatFromCSR(rt, a)
	ReplicateMat(rt, m)
	em := NewEpochMat(m)

	for round := 0; round < 4; round++ {
		for k := 0; k < 25; k++ {
			if err := em.Update((k+round)%n, (5*k+round)%n, float64(round*100+k)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := em.Flush(rt); err != nil {
			t.Fatal(err)
		}
		cur := em.Committed()
		if !cur.Replicated() {
			t.Fatalf("round %d: replication lost across the epoch commit", round)
		}
		for l := 0; l < rt.G.P; l++ {
			if !cur.Replicas[l].Equal(cur.Blocks[l]) {
				t.Fatalf("round %d: replica of block %d stale after commit", round, l)
			}
			if cur.Replicas[l] == cur.Blocks[l] {
				t.Fatalf("round %d: replica of block %d aliases the primary", round, l)
			}
		}
	}
}

func TestEpochMatFlushChargesModel(t *testing.T) {
	a := sparse.ErdosRenyi[float64](40, 4, 3)
	rt := newRT(t, 4)
	em := NewEpochMat(MatFromCSR(rt, a))
	for k := 0; k < 30; k++ {
		if err := em.Update(k%40, (7*k)%40, 1); err != nil {
			t.Fatal(err)
		}
	}
	t0, b0 := rt.S.Elapsed(), rt.S.Traffic().Bytes
	if _, err := em.Flush(rt); err != nil {
		t.Fatal(err)
	}
	if rt.S.Elapsed() <= t0 {
		t.Fatal("flush advanced no modeled time")
	}
	if moved := rt.S.Traffic().Bytes - b0; moved < int64(30)*DeltaElemBytes {
		t.Fatalf("flush moved %d bytes, want at least %d", moved, int64(30)*DeltaElemBytes)
	}
}

// CommittedDeletes returns the cumulative number of tombstones merged up to
// the committed epoch; two equal values bracket an insert-only interval.
func (em *EpochMat[T]) CommittedDeletes() uint64 { return em.committed.Load().deletes }

// CommittedRaises returns the cumulative number of merged overwrites, up to
// the committed epoch, whose new value is not <= the value it replaced (a NaN
// on either side counts). Each coordinate is judged once per merge, by its
// last write of the epoch against the committed value.
func (em *EpochMat[T]) CommittedRaises() uint64 { return em.committed.Load().raises }
