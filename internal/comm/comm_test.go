package comm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/semiring"
)

func newRT(t *testing.T, p int) *locale.Runtime {
	t.Helper()
	rt, err := locale.New(machine.Edison(), p, 24)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestTreeDepth(t *testing.T) {
	cases := map[int]float64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 64: 6}
	for p, want := range cases {
		if got := treeDepth(p); got != want {
			t.Errorf("treeDepth(%d) = %v, want %v", p, got, want)
		}
	}
}

func TestBroadcast(t *testing.T) {
	rt := newRT(t, 4)
	data := []int64{1, 2, 3}
	out, err := Broadcast(rt, 1, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatal("wrong fan-out")
	}
	for l, d := range out {
		if len(d) != 3 || d[0] != 1 || d[2] != 3 {
			t.Fatalf("locale %d got %v", l, d)
		}
	}
	// Remote copies must not alias the root's slice.
	out[0][0] = 99
	if data[0] == 99 {
		t.Error("broadcast aliased root data on a remote locale")
	}
	if rt.S.Elapsed() <= 0 {
		t.Error("broadcast charged nothing")
	}
	// Single locale broadcast is free and shares the slice.
	rt1 := newRT(t, 1)
	out1, err := Broadcast(rt1, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if &out1[0][0] != &data[0] {
		t.Error("single-locale broadcast should share storage")
	}
	if rt1.S.Elapsed() != 0 {
		t.Error("single-locale broadcast should be free")
	}
}

func TestGather(t *testing.T) {
	rt := newRT(t, 3)
	parts := [][]int64{{1, 2}, {}, {3}}
	out, err := Gather(rt, 0, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != 1 || out[2] != 3 {
		t.Fatalf("gather = %v", out)
	}
	// One bulk message per non-root nonempty part.
	if got := rt.S.Traffic().BulkOps; got != 1 {
		t.Errorf("bulk ops = %d, want 1 (one nonempty remote part)", got)
	}
}

func TestAllGather(t *testing.T) {
	rt := newRT(t, 4)
	parts := [][]int32{{1}, {2, 3}, {}, {4}}
	out, err := AllGather(rt, parts)
	if err != nil {
		t.Fatal(err)
	}
	for l := range out {
		if len(out[l]) != 4 || out[l][0] != 1 || out[l][3] != 4 {
			t.Fatalf("locale %d allgather = %v", l, out[l])
		}
	}
}

func TestReduceAndAllReduce(t *testing.T) {
	rt := newRT(t, 4)
	vals := []int64{3, 1, 7, 5}
	if got, err := Reduce(rt, 0, vals, semiring.PlusMonoid[int64]()); err != nil || got != 16 {
		t.Errorf("reduce sum = %d (%v), want 16", got, err)
	}
	if got, err := Reduce(rt, 0, vals, semiring.MaxMonoid[int64]()); err != nil || got != 7 {
		t.Errorf("reduce max = %d (%v), want 7", got, err)
	}
	before := rt.S.Elapsed()
	if got, err := AllReduce(rt, vals, semiring.MinMonoid[int64]()); err != nil || got != 1 {
		t.Errorf("allreduce min = %d (%v), want 1", got, err)
	}
	if rt.S.Elapsed() <= before {
		t.Error("allreduce charged nothing")
	}
}

func TestRowAllGather(t *testing.T) {
	rt := newRT(t, 6) // 2x3 grid
	parts := make([][]int64, 6)
	for l := range parts {
		parts[l] = []int64{int64(l * 10)}
	}
	out, err := RowAllGather(rt, parts)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 = locales 0,1,2; row 1 = locales 3,4,5.
	for _, l := range []int{0, 1, 2} {
		if len(out[l]) != 3 || out[l][0] != 0 || out[l][1] != 10 || out[l][2] != 20 {
			t.Fatalf("row 0 locale %d = %v", l, out[l])
		}
	}
	for _, l := range []int{3, 4, 5} {
		if len(out[l]) != 3 || out[l][0] != 30 || out[l][2] != 50 {
			t.Fatalf("row 1 locale %d = %v", l, out[l])
		}
	}
	// The read-only contract: a team shares one buffer on loan from the
	// arena, which is neither an input nor another team's, and releasing the
	// result returns every loan.
	if &out[0][0] != &out[1][0] || &out[1][0] != &out[2][0] || &out[3][0] != &out[5][0] {
		t.Error("team members must share one buffer")
	}
	if &out[0][0] == &out[3][0] || &out[0][0] == &parts[0][0] {
		t.Error("a team's buffer aliases another team's or an input")
	}
	if got := rt.Scratch.Outstanding(); got != 2 {
		t.Errorf("two row teams hold %d loans", got)
	}
	ReleaseRowGather(rt, out)
	if got := rt.Scratch.Outstanding(); got != 0 {
		t.Errorf("%d loans outstanding after the release", got)
	}
	// The next gather reuses the returned buffers and still reads its inputs.
	parts[4][0] = 41
	again, err := RowAllGather(rt, parts)
	if err != nil {
		t.Fatal(err)
	}
	if again[3][1] != 41 || again[0][2] != 20 {
		t.Errorf("second gather = %v / %v", again[0], again[3])
	}
	ReleaseRowGather(rt, again)
}

func TestColReduceScatter(t *testing.T) {
	rt := newRT(t, 6) // 2x3 grid
	parts := make([][]int64, 6)
	for l := range parts {
		parts[l] = []int64{int64(l), int64(l * 2)}
	}
	out, err := ColReduceScatter(rt, parts, semiring.PlusMonoid[int64]())
	if err != nil {
		t.Fatal(err)
	}
	// Column 0 = locales 0 and 3: sums {0+3, 0+6}.
	for _, l := range []int{0, 3} {
		if out[l][0] != 3 || out[l][1] != 6 {
			t.Fatalf("col 0 locale %d = %v", l, out[l])
		}
	}
	// Column 2 = locales 2 and 5: sums {7, 14}.
	for _, l := range []int{2, 5} {
		if out[l][0] != 7 || out[l][1] != 14 {
			t.Fatalf("col 2 locale %d = %v", l, out[l])
		}
	}
	// One shared read-only buffer per column team, never an input; the
	// inputs are left as they were.
	if &out[0][0] != &out[3][0] || &out[0][0] == &out[1][0] || &out[0][0] == &parts[0][0] {
		t.Error("each column team must share one buffer of its own")
	}
	if parts[0][0] != 0 || parts[3][1] != 6 {
		t.Errorf("inputs were written: %v", parts)
	}
	if got := rt.Scratch.Outstanding(); got != 3 {
		t.Errorf("three column teams hold %d loans", got)
	}
	ReleaseColReduce(rt, out)
	if got := rt.Scratch.Outstanding(); got != 0 {
		t.Errorf("%d loans outstanding after the release", got)
	}
}

// TestColReduceScatterInlineFoldMatchesOperator: for the plus monoid, whose
// fold is inlined, over float64 and int64 inputs that include NaN, ±Inf, -0
// and the integer extremes, the reduced bands equal — bit for bit — those of
// a copy of the monoid whose Op was reassigned to a closure around the same
// operator, which reports MonoidGeneric and takes the function-valued loop;
// min and max take that loop either way. Ragged parts (a member shorter than
// the band) are folded over their length.
func TestColReduceScatterInlineFoldMatchesOperator(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fvals := []float64{0, negZero, 1, -1, 0.1, 1e308, -1e308, 5e-324, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64}
	ivals := []int64{0, 1, -1, 2, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	checkFold(t, "float64", fvals, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	})
	checkFold(t, "int64", ivals, func(a, b int64) bool { return a == b })
}

func checkFold[T semiring.Number](t *testing.T, name string, specials []T, same func(a, b T) bool) {
	t.Helper()
	rt := newRT(t, 6) // 2x3 grid: column teams of two
	r := rand.New(rand.NewSource(int64(len(specials))))
	for trial := 0; trial < 200; trial++ {
		parts := make([][]T, 6)
		for l := range parts {
			parts[l] = make([]T, 5+r.Intn(4)) // ragged
			for i := range parts[l] {
				parts[l][i] = specials[r.Intn(len(specials))]
			}
		}
		for _, m := range []semiring.Monoid[T]{semiring.PlusMonoid[T]()} {
			if m.Kind() == semiring.MonoidGeneric {
				t.Fatalf("%s/%s: the constructor's monoid reports the generic kind", name, m.Name)
			}
			viaOp := m
			op := m.Op
			viaOp.Op = func(a, b T) T { return op(a, b) }
			if viaOp.Kind() != semiring.MonoidGeneric {
				t.Fatalf("%s/%s: a reassigned Op kept the built-in kind", name, m.Name)
			}
			got, err := ColReduceScatter(rt, parts, m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ColReduceScatter(rt, parts, viaOp)
			if err != nil {
				t.Fatal(err)
			}
			for l := range want {
				if len(got[l]) != len(want[l]) {
					t.Fatalf("%s/%s: locale %d band is %d wide inlined, %d through Op", name, m.Name, l, len(got[l]), len(want[l]))
				}
				for i := range want[l] {
					if !same(got[l][i], want[l][i]) {
						t.Fatalf("%s/%s: locale %d [%d] = %v inlined, %v through Op (parts %v)", name, m.Name, l, i, got[l][i], want[l][i], parts)
					}
				}
			}
			ReleaseColReduce(rt, got)
			ReleaseColReduce(rt, want)
		}
	}
	if got := rt.Scratch.Outstanding(); got != 0 {
		t.Errorf("%s: %d loans outstanding", name, got)
	}
}

// TestColReduceInPlaceChargesLikeScatter: reducing into lent column bands
// charges what folding per-member parts of the bands' widths charges — every
// locale's clock, the traffic and the retries, with and without dropped or
// crashed transfers — and a failed reduce of either form returns its loans.
func TestColReduceInPlaceChargesLikeScatter(t *testing.T) {
	plans := []*fault.Plan{nil}
	for seed := int64(1); seed <= 12; seed++ {
		plans = append(plans,
			&fault.Plan{Seed: seed, DropProb: 0.4, CrashLocale: -1},
			&fault.Plan{Seed: seed, CrashLocale: int(seed) % 4, CrashStep: seed % 5})
	}
	for _, sh := range [][2]int{{2, 3}, {3, 2}, {4, 1}, {1, 4}, {3, 3}} {
		g, err := locale.NewGridShape(sh[0], sh[1])
		if err != nil {
			t.Fatal(err)
		}
		bounds := locale.BlockBounds(37, sh[1])
		for _, plan := range plans {
			run := func(inPlace bool) (*locale.Runtime, error) {
				rt := locale.NewWithGrid(machine.Edison(), g, 24)
				if plan != nil {
					rt = rt.WithFault(*plan)
					rt.Retry = fault.RetryPolicy{MaxAttempts: 3}
				}
				if inPlace {
					out := LendColBands[float64](rt, bounds)
					if err := ColReduceInPlace(rt, out); err != nil {
						return rt, err
					}
					ReleaseColReduce(rt, out)
					return rt, nil
				}
				parts := make([][]float64, g.P)
				for l := range parts {
					_, c := g.Coords(l)
					parts[l] = make([]float64, bounds[c+1]-bounds[c])
				}
				out, err := ColReduceScatter(rt, parts, semiring.MinMonoid[float64]())
				if err != nil {
					return rt, err
				}
				ReleaseColReduce(rt, out)
				return rt, nil
			}
			folded, errF := run(false)
			lent, errL := run(true)
			if (errF == nil) != (errL == nil) || (errF != nil && errF.Error() != errL.Error()) {
				t.Fatalf("%dx%d %+v: errors %v folded, %v in place", sh[0], sh[1], plan, errF, errL)
			}
			for l := 0; l < g.P; l++ {
				if folded.S.Clock(l) != lent.S.Clock(l) {
					t.Fatalf("%dx%d %+v: locale %d at %v folded, %v in place", sh[0], sh[1], plan, l, folded.S.Clock(l), lent.S.Clock(l))
				}
			}
			if folded.S.Traffic() != lent.S.Traffic() {
				t.Fatalf("%dx%d %+v: traffic %+v folded, %+v in place", sh[0], sh[1], plan, folded.S.Traffic(), lent.S.Traffic())
			}
			for _, rt := range []*locale.Runtime{folded, lent} {
				if got := rt.Scratch.Outstanding(); got != 0 {
					t.Fatalf("%dx%d %+v: %d loans outstanding", sh[0], sh[1], plan, got)
				}
			}
		}
	}
}

func TestCollectiveCostsScaleWithTeam(t *testing.T) {
	// A 64-locale broadcast must cost more than a 2-locale one (deeper tree),
	// but only logarithmically so.
	data := make([]float64, 1000)
	rt2 := newRT(t, 2)
	if _, err := Broadcast(rt2, 0, data); err != nil {
		t.Fatal(err)
	}
	rt64 := newRT(t, 64)
	if _, err := Broadcast(rt64, 0, data); err != nil {
		t.Fatal(err)
	}
	t2, t64 := rt2.S.Elapsed(), rt64.S.Elapsed()
	if t64 <= t2 {
		t.Errorf("64-locale broadcast (%.1fus) should cost more than 2-locale (%.1fus)", t64/1e3, t2/1e3)
	}
	if t64 > 8*t2 {
		t.Errorf("64-locale broadcast (%.1fus) should be log-depth, not linear (2-locale %.1fus)", t64/1e3, t2/1e3)
	}
}

// AllGather concatenates every locale's slice on every locale. Charges a
// gather followed by a broadcast (the standard tree implementation).
func AllGather[T semiring.Number](rt *locale.Runtime, parts [][]T) ([][]T, error) {
	defer rt.Span("AllGather").End()
	root := 0
	joined, err := Gather(rt, root, parts)
	if err != nil {
		return nil, err
	}
	return Broadcast(rt, root, joined)
}

// Broadcast copies the root locale's slice to every other locale; returns
// one slice per locale (the root's own slice is shared, remote ones are
// copies). Charges a log2(P)-depth broadcast tree, with per-destination
// retries under faults.
func Broadcast[T semiring.Number](rt *locale.Runtime, root int, data []T) ([][]T, error) {
	defer rt.Span("Broadcast").End()
	p := rt.G.P
	out := make([][]T, p)
	for l := 0; l < p; l++ {
		if l == root {
			out[l] = data
			continue
		}
		out[l] = append([]T(nil), data...)
	}
	if p > 1 {
		base := rt.S.BulkTime(bytesOf(len(data)), false) * treeDepth(p)
		for l := 0; l < p; l++ {
			per := base
			if l != root {
				extra, err := retryExtra(rt, root, l, base, "broadcast")
				if err != nil {
					return nil, err
				}
				per += extra
			}
			rt.S.Advance(l, per)
		}
	}
	return out, nil
}

// Gather concatenates each locale's slice at the root, in locale order.
// Charges one bulk transfer per non-root locale into the root, with retries.
func Gather[T semiring.Number](rt *locale.Runtime, root int, parts [][]T) ([]T, error) {
	defer rt.Span("Gather").End()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for l, part := range parts {
		out = append(out, part...)
		if l != root && len(part) > 0 {
			intra := rt.G.SameNode(root, l)
			extra, err := retryExtra(rt, l, root, rt.S.BulkTime(bytesOf(len(part)), intra), "gather")
			if err != nil {
				return nil, err
			}
			rt.S.Bulk(root, bytesOf(len(part)), intra)
			if extra > 0 {
				rt.S.Advance(root, extra)
			}
		}
	}
	rt.S.Barrier()
	return out, nil
}
