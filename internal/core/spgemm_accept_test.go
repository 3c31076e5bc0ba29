package core

// The SUMMA acceptance suite CI's spgemm-accept job runs: bitwise identity
// against the sequential reference on Erdős–Rényi and R-MAT inputs over the
// grids the band sweep must handle — prime locale counts (1×p rectangular
// grids), square grids, and an oversubscribed 13-locale one-node grid — plus
// the message-count pin that keeps the per-stage broadcasts O(team size)
// instead of O(nnz).

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// acceptInputs returns the named acceptance matrices.
func acceptInputs(t *testing.T) map[string]*sparse.CSR[int64] {
	t.Helper()
	rmat, err := sparse.RMAT[int64](7, 6, 91) // 128 vertices, ~768 edges, skewed
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*sparse.CSR[int64]{
		"er":   sparse.ErdosRenyi[int64](120, 5, 90),
		"rmat": rmat,
	}
}

func TestSpGEMMAcceptPrimeAndOversubscribedGrids(t *testing.T) {
	sr := semiring.PlusTimes[int64]()
	for name, a0 := range acceptInputs(t) {
		b0 := sparse.ErdosRenyi[int64](a0.NCols, 4, 92)
		want := RefSpGEMM(a0, b0, sr)
		for _, tc := range []struct {
			label   string
			p       int
			oneNode bool
		}{
			{"p=3 (1x3)", 3, false},
			{"p=7 (1x7)", 7, false},
			{"p=13 one-node oversubscribed", 13, true},
			{"p=9 (3x3)", 9, false},
		} {
			var rt *locale.Runtime
			if tc.oneNode {
				g, err := locale.NewGridOnOneNode(tc.p)
				if err != nil {
					t.Fatal(err)
				}
				rt = locale.NewWithGrid(machine.Edison(), g, 4)
			} else {
				rt = newRT(t, tc.p, 4)
			}
			a := dist.MatFromCSR(rt, a0)
			b := dist.MatFromCSR(rt, b0)
			c, err := SpGEMMDist(rt, a, b, sr)
			if err != nil {
				t.Fatalf("%s %s: %v", name, tc.label, err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("%s %s: %v", name, tc.label, err)
			}
			got, err := c.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s %s: SUMMA differs from sequential reference", name, tc.label)
			}
		}
	}
}

// TestSUMMAMessageCountPerStage pins the broadcast cost model: every stage
// sends exactly one message per non-root team member per panel —
// Pr·(Pc−1) + Pc·(Pr−1) messages per stage, a pure function of the grid —
// so the collectives are O(√P) per block, never O(nnz).
func TestSUMMAMessageCountPerStage(t *testing.T) {
	for _, p := range []int{4, 6, 9, 16} {
		rt := newRT(t, p, 4)
		g := rt.G
		a0 := sparse.ErdosRenyi[int64](96, 6, 93)
		a := dist.MatFromCSR(rt, a0)
		b := dist.MatFromCSR(rt, a0)
		before := rt.S.Traffic().Messages
		if _, err := SpGEMMDist(rt, a, b, semiring.PlusTimes[int64]()); err != nil {
			t.Fatal(err)
		}
		gotMsgs := rt.S.Traffic().Messages - before
		stages := summaStages(a.ColBands, b.RowBands)
		perStage := int64(g.Pr*(g.Pc-1) + g.Pc*(g.Pr-1))
		if want := int64(len(stages)) * perStage; gotMsgs != want {
			t.Errorf("p=%d: %d messages for %d stages, want exactly %d (%d per stage)",
				p, gotMsgs, len(stages), want, perStage)
		}
		// Doubling the density must not change the message count.
		rt2 := newRT(t, p, 4)
		d0 := sparse.ErdosRenyi[int64](96, 12, 94)
		da := dist.MatFromCSR(rt2, d0)
		db := dist.MatFromCSR(rt2, d0)
		before2 := rt2.S.Traffic().Messages
		if _, err := SpGEMMDist(rt2, da, db, semiring.PlusTimes[int64]()); err != nil {
			t.Fatal(err)
		}
		if got2 := rt2.S.Traffic().Messages - before2; got2 != gotMsgs {
			t.Errorf("p=%d: message count depends on nnz (%d vs %d)", p, got2, gotMsgs)
		}
	}
}

// TestSUMMAStagesRectangular checks the band sweep's stage algebra: square
// grids give the classic √P stages, rectangular grids at most Pr+Pc−1, and
// the segments tile the inner dimension exactly.
func TestSUMMAStagesRectangular(t *testing.T) {
	for _, tc := range []struct{ n, pr, pc int }{
		{100, 2, 2}, {100, 1, 3}, {100, 2, 3}, {97, 3, 4}, {5, 3, 4},
	} {
		aCols := locale.BlockBounds(tc.n, tc.pc)
		bRows := locale.BlockBounds(tc.n, tc.pr)
		stages := summaStages(aCols, bRows)
		if tc.pr == tc.pc && len(stages) != tc.pr && tc.n >= tc.pr {
			t.Errorf("%dx%d square grid: %d stages, want %d", tc.pr, tc.pc, len(stages), tc.pr)
		}
		if len(stages) > tc.pr+tc.pc-1 {
			t.Errorf("%dx%d grid: %d stages exceeds Pr+Pc-1", tc.pr, tc.pc, len(stages))
		}
		at := 0
		for _, st := range stages {
			if st.lo != at || st.hi <= st.lo {
				t.Fatalf("stage %+v does not continue tiling at %d", st, at)
			}
			if aCols[st.ca] > st.lo || aCols[st.ca+1] < st.hi {
				t.Fatalf("stage %+v escapes A column band %d", st, st.ca)
			}
			if bRows[st.rb] > st.lo || bRows[st.rb+1] < st.hi {
				t.Fatalf("stage %+v escapes B row band %d", st, st.rb)
			}
			at = st.hi
		}
		if at != tc.n {
			t.Errorf("stages tile [0,%d), want [0,%d)", at, tc.n)
		}
	}
}

// TestSpGEMMMaskedDistMatchesShm checks the distributed masked product
// against the sequential reference restricted to the mask.
func TestSpGEMMMaskedDistMatchesShm(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](80, 5, 95)
	sr := semiring.PlusTimes[int64]()
	want := maskOf(RefSpGEMM(a0, a0, sr), a0)
	for _, p := range []int{1, 3, 4, 9} {
		rt := newRT(t, p, 4)
		a := dist.MatFromCSR(rt, a0)
		c, err := SpGEMMDistMasked(rt, a, a, a, sr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("p=%d: masked SUMMA differs from the masked reference", p)
		}
	}
}

// TestSpGEMMPlacePrefetchBitwiseIdentical forces the panel-prefetch
// placement through the strategy axis and checks the result is unchanged
// and the dispatch was recorded as forced.
func TestSpGEMMPlacePrefetchBitwiseIdentical(t *testing.T) {
	a0 := sparse.ErdosRenyi[int64](90, 5, 96)
	sr := semiring.PlusTimes[int64]()
	want := RefSpGEMM(a0, a0, sr)
	for _, place := range []inspect.Place{inspect.PlaceGather, inspect.PlaceReplicate} {
		rt := newRT(t, 6, 4)
		rt.Insp = inspect.New(inspect.Strategy{Place: place})
		a := dist.MatFromCSR(rt, a0)
		c, err := SpGEMMDist(rt, a, a, sr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("place=%v: result differs from reference", place)
		}
		d := rt.Insp.Last()
		if d.Op != "SpGEMM" || d.Axis != inspect.AxisPlace || d.Reason != inspect.ReasonForced {
			t.Errorf("place=%v: dispatch recorded %+v, want forced SpGEMM place decision", place, d)
		}
	}
}

// TestSpGEMMPlaceAutoDispatch lets the inspector choose and checks a
// decision lands in the table with a modeled-cost reason either way.
func TestSpGEMMPlaceAutoDispatch(t *testing.T) {
	rt := newRT(t, 9, 4)
	rt.Insp = inspect.New(inspect.Strategy{})
	a0 := sparse.ErdosRenyi[int64](120, 6, 97)
	a := dist.MatFromCSR(rt, a0)
	want := RefSpGEMM(a0, a0, semiring.PlusTimes[int64]())
	c, err := SpGEMMDist(rt, a, a, semiring.PlusTimes[int64]())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("auto-dispatched SUMMA differs from reference")
	}
	d := rt.Insp.Last()
	if d.Op != "SpGEMM" || d.Axis != inspect.AxisPlace {
		t.Fatalf("last decision %+v, want SpGEMM place axis", d)
	}
	if d.Reason != ReasonStageBroadcast && d.Reason != ReasonPanelPrefetch {
		t.Errorf("reason %q, want a modeled-cost reason", d.Reason)
	}
}
