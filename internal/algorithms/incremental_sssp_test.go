package algorithms

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/sparse"
)

// IncrementalSSSP starts from a previous answer only across epochs that
// inserted edges or lowered weights. These tests hold every refresh, warm or
// cold, bitwise to a cold SSSPDist on the same snapshot, and hold the choice
// of start to an oracle that counts deletes and raises itself.

type edgeKey struct{ i, j int }

// edgeOracle is the graph as a coordinate map, with the counts a warm start
// depends on: deletes absorbed and raises merged (by each coordinate's last
// write of an epoch against its committed value), and epochs that changed
// anything at all.
type edgeOracle struct {
	n                        int
	edges                    map[edgeKey]float64
	deletes, raises, changes int
}

func newEdgeOracle(a *sparse.CSR[float64]) *edgeOracle {
	o := &edgeOracle{n: a.NRows, edges: map[edgeKey]float64{}}
	for i := 0; i < a.NRows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			o.edges[edgeKey{i, j}] = vals[k]
		}
	}
	return o
}

func (o *edgeOracle) csr(t *testing.T) *sparse.CSR[float64] {
	t.Helper()
	coo := sparse.NewCOO[float64](o.n, o.n)
	for k, v := range o.edges {
		coo.Append(k.i, k.j, v)
	}
	a, err := coo.ToCSR(func(_, b float64) float64 { return b })
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// write is one absorbed mutation.
type write struct {
	i, j int
	v    float64
	del  bool
}

// epochBatch draws one epoch's writes of the given kind against the oracle's
// current graph; weights stay non-negative integers.
func (o *edgeOracle) epochBatch(rng *rand.Rand, kind string) []write {
	existing := make([]edgeKey, 0, len(o.edges))
	for i := 0; i < o.n; i++ {
		for j := 0; j < o.n; j++ {
			if _, ok := o.edges[edgeKey{i, j}]; ok {
				existing = append(existing, edgeKey{i, j})
			}
		}
	}
	pick := func() (edgeKey, float64) {
		k := existing[rng.Intn(len(existing))]
		return k, o.edges[k]
	}
	var ws []write
	inserts := func(m int) {
		for ; m > 0; m-- {
			i, j := rng.Intn(o.n), rng.Intn(o.n)
			if _, ok := o.edges[edgeKey{i, j}]; !ok {
				ws = append(ws, write{i: i, j: j, v: float64(1 + rng.Intn(99))})
			}
		}
	}
	lowers := func(m int) {
		for ; m > 0; m-- {
			k, v := pick()
			ws = append(ws, write{i: k.i, j: k.j, v: float64(rng.Intn(int(v) + 1))}) // <= v
		}
	}
	switch kind {
	case "insert+lower":
		inserts(6)
		lowers(4)
	case "noop": // rewrites stored values unchanged: a new epoch, the same graph
		for m := 0; m < 3; m++ {
			k, v := pick()
			ws = append(ws, write{i: k.i, j: k.j, v: v})
		}
	case "raise":
		inserts(3)
		k, v := pick()
		ws = append(ws, write{i: k.i, j: k.j, v: v + float64(1+rng.Intn(50))})
	case "delete":
		lowers(2)
		k, _ := pick()
		ws = append(ws, write{i: k.i, j: k.j, del: true})
	case "lower-then-raise": // one coordinate, one epoch: a raise
		inserts(2)
		k, v := pick()
		ws = append(ws, write{i: k.i, j: k.j, v: math.Max(v-1, 0)}, write{i: k.i, j: k.j, v: v + 3})
	case "raise-then-lower": // one coordinate, one epoch: not a raise
		inserts(2)
		k, v := pick()
		ws = append(ws, write{i: k.i, j: k.j, v: v + 7}, write{i: k.i, j: k.j, v: math.Max(v-1, 0)})
	default:
		panic("unknown batch kind " + kind)
	}
	return ws
}

// apply absorbs ws into em and into the oracle, counting the deletes and
// raises the merge will count.
func (o *edgeOracle) apply(t *testing.T, em *dist.EpochMat[float64], ws []write) {
	t.Helper()
	last := map[edgeKey]write{}
	for _, w := range ws {
		var err error
		if w.del {
			err = em.Delete(w.i, w.j)
			o.deletes++
		} else {
			err = em.Update(w.i, w.j, w.v)
		}
		if err != nil {
			t.Fatal(err)
		}
		last[edgeKey{w.i, w.j}] = w
	}
	changed := false
	for k, w := range last {
		old, stored := o.edges[k]
		switch {
		case w.del:
			delete(o.edges, k)
			changed = changed || stored
		default:
			if stored && !(w.v <= old) {
				o.raises++
			}
			o.edges[k] = w.v
			changed = changed || !stored || w.v != old
		}
	}
	if changed {
		o.changes++
	}
}

// oracleMark is what the oracle counted up to one state's epoch.
type oracleMark struct{ invalidations, changes int }

func (o *edgeOracle) mark() oracleMark {
	return oracleMark{o.deletes + o.raises, o.changes}
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return -2
	}
	for v := range a {
		if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
			return v
		}
	}
	return -1
}

// TestIncrementalSSSPDifferential: random ER graphs under random epochs of
// inserts, lowerings, raises, deletes, no-op rewrites and, within one epoch,
// lower-then-raise and raise-then-lower of one coordinate; three sources
// refreshed every one, two and three epochs, so intervals span several
// epochs; eager and fused rounds over three grid shapes. Every refresh equals
// a cold SSSPDist bitwise (and the sequential reference), is warm exactly when
// its interval had no raise and no delete, never takes more rounds than the
// cold run, and takes one round when its interval changed nothing.
func TestIncrementalSSSPDifferential(t *testing.T) {
	kinds := []string{"insert+lower", "insert+lower", "noop", "raise", "delete", "lower-then-raise", "raise-then-lower"}
	sources := []int{0, 17, 53}
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {2, 3}} {
		for _, fused := range []bool{false, true} {
			for seed := int64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%dx%d fused=%v seed=%d", shape[0], shape[1], fused, seed)
				t.Run(name, func(t *testing.T) {
					rt := gridRT(t, shape[0], shape[1], fused)
					a := sparse.ErdosRenyi[float64](70, 3, seed)
					em := dist.NewEpochMat(dist.MatFromCSR(rt, a))
					o := newEdgeOracle(a)
					rng := rand.New(rand.NewSource(seed))
					prev := make([]*SSSPState[float64], len(sources))
					marks := make([]oracleMark, len(sources))
					warm, cold := 0, 0
					for epoch := 0; epoch <= 14; epoch++ {
						if epoch > 0 {
							o.apply(t, em, o.epochBatch(rng, kinds[rng.Intn(len(kinds))]))
							if _, err := em.Flush(rt); err != nil {
								t.Fatal(err)
							}
						}
						mat, _ := em.Pinned()
						ref := o.csr(t)
						for k, src := range sources {
							if epoch%(k+1) != 0 {
								continue
							}
							what := fmt.Sprintf("epoch %d source %d", epoch, src)
							st, err := IncrementalSSSP(rt, em, src, prev[k])
							if err != nil {
								t.Fatal(err)
							}
							want, wantRounds, err := SSSPDist(rt, mat, src)
							if err != nil {
								t.Fatal(err)
							}
							if v := sameBits(st.Dist, want); v != -1 {
								t.Fatalf("%s (warm %v): distances depart from the cold run at vertex %d", what, st.Warm, v)
							}
							if v := sameBits(st.Dist, RefSSSP(ref, src)); v != -1 {
								t.Fatalf("%s: distances depart from the sequential reference at vertex %d", what, v)
							}
							now := o.mark()
							wantWarm := prev[k] != nil && marks[k].invalidations == now.invalidations
							if st.Warm != wantWarm {
								t.Fatalf("%s: warm %v, want %v (invalidations %d -> %d)", what, st.Warm, wantWarm, marks[k].invalidations, now.invalidations)
							}
							if st.Rounds > wantRounds {
								t.Fatalf("%s: warm %v took %d rounds, the cold run %d", what, st.Warm, st.Rounds, wantRounds)
							}
							if wantWarm && marks[k].changes == now.changes && st.Rounds != 1 {
								t.Fatalf("%s: nothing changed since the last refresh, yet %d rounds", what, st.Rounds)
							}
							if st.Warm {
								warm++
							} else {
								cold++
							}
							prev[k], marks[k] = st, now
						}
					}
					// Asking again at the same epoch starts from the answer: one round.
					again, err := IncrementalSSSP(rt, em, sources[0], prev[0])
					if err != nil {
						t.Fatal(err)
					}
					if !again.Warm || again.Rounds != 1 || sameBits(again.Dist, prev[0].Dist) != -1 {
						t.Fatalf("same-epoch refresh: warm %v in %d rounds", again.Warm, again.Rounds)
					}
					if warm == 0 || cold <= len(sources) {
						t.Fatalf("%d warm and %d cold refreshes: the draw exercised one start only", warm, cold)
					}
				})
			}
		}
	}
}

// TestIncrementalSSSPStateChecks: another source, a newer state, or a
// state of another matrix each run cold; the state records what it ran.
func TestIncrementalSSSPStateChecks(t *testing.T) {
	rt := newRT(t, 4)
	a := sparse.ErdosRenyi[float64](60, 4, 9)
	em := dist.NewEpochMat(dist.MatFromCSR(rt, a))
	twin := dist.NewEpochMat(dist.MatFromCSR(rt, a))
	at0, err := IncrementalSSSP(rt, em, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if at0.Warm || at0.Epoch != 0 || at0.Source != 3 {
		t.Fatalf("first refresh: %+v", at0)
	}
	old, oldStamp := em.Pinned() // epoch 0 stays immutable for one more commit
	if err := em.Update(3, 40, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := em.Flush(rt); err != nil {
		t.Fatal(err)
	}
	at1, err := IncrementalSSSP(rt, em, 3, at0)
	if err != nil {
		t.Fatal(err)
	}
	if !at1.Warm || at1.Epoch != 1 {
		t.Fatalf("after an insert: warm %v at epoch %d, want warm at 1", at1.Warm, at1.Epoch)
	}
	for what, run := range map[string]func() (*SSSPState[float64], error){
		"another source":   func() (*SSSPState[float64], error) { return IncrementalSSSP(rt, em, 4, at1) },
		"a newer state":    func() (*SSSPState[float64], error) { return IncrementalSSSPAt(rt, old, oldStamp, 3, at1) },
		"another matrix":   func() (*SSSPState[float64], error) { return IncrementalSSSP(rt, twin, 3, at0) },
		"an unstamped run": func() (*SSSPState[float64], error) { return IncrementalSSSPAt(rt, old, dist.Stamp{}, 3, at0) },
		"onto an unstamped": func() (*SSSPState[float64], error) {
			return IncrementalSSSP(rt, em, 3, &SSSPState[float64]{Source: 3, Dist: at1.Dist})
		},
	} {
		st, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if st.Warm {
			t.Errorf("%s: warm start", what)
		}
	}
}

// TestIncrementalSSSPNegativeCycleRunsCold: an inserted edge that closes a
// negative cycle is no raise and no delete, so the state may seed the run —
// but no run settles, and the answer is the cold run's, rounds included.
func TestIncrementalSSSPNegativeCycleRunsCold(t *testing.T) {
	rt := newRT(t, 4)
	a, err := sparse.CSRFromTriplets(8, 8, []int{0, 1, 2, 3, 4, 5, 6}, []int{1, 2, 3, 4, 5, 6, 7}, []float64{1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	em := dist.NewEpochMat(dist.MatFromCSR(rt, a))
	prev, err := IncrementalSSSP(rt, em, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := em.Update(3, 2, -5); err != nil { // 2 -> 3 -> 2 weighs -4
		t.Fatal(err)
	}
	if _, err := em.Flush(rt); err != nil {
		t.Fatal(err)
	}
	st, err := IncrementalSSSP(rt, em, 0, prev)
	if err != nil {
		t.Fatal(err)
	}
	mat, _ := em.Pinned()
	want, wantRounds, err := SSSPDist(rt, mat, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Warm || st.Rounds != wantRounds || sameBits(st.Dist, want) != -1 {
		t.Fatalf("warm %v, %d rounds (cold %d), distances %v, cold %v", st.Warm, st.Rounds, wantRounds, st.Dist, want)
	}
}
