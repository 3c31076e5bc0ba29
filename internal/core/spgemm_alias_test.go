package core

// The SUMMA stage panels alias the operands' resident blocks (whole-band
// panels are the blocks themselves, partial B panels are views), so two
// properties need pinning on every grid family: the multiply never writes an
// operand, and nothing of an operand escapes into the product.

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// cloneBlocks deep-copies a distributed matrix's blocks.
func cloneBlocks(m *dist.Mat[int64]) []*sparse.CSR[int64] {
	out := make([]*sparse.CSR[int64], len(m.Blocks))
	for l, b := range m.Blocks {
		out[l] = b.Clone()
	}
	return out
}

// sharesBacking reports whether two slices' backing arrays (up to capacity)
// overlap in memory.
func sharesBacking[T any](x, y []T) bool {
	if cap(x) == 0 || cap(y) == 0 {
		return false
	}
	size := unsafe.Sizeof(x[:1][0])
	x0 := uintptr(unsafe.Pointer(unsafe.SliceData(x)))
	y0 := uintptr(unsafe.Pointer(unsafe.SliceData(y)))
	return x0 < y0+uintptr(cap(y))*size && y0 < x0+uintptr(cap(x))*size
}

// csrSharesBacking reports whether any array of c overlaps any array of o.
func csrSharesBacking(c, o *sparse.CSR[int64]) bool {
	for _, ci := range [][]int{c.RowPtr, c.ColIdx} {
		for _, oi := range [][]int{o.RowPtr, o.ColIdx} {
			if sharesBacking(ci, oi) {
				return true
			}
		}
	}
	return sharesBacking(c.Val, o.Val)
}

func TestSpGEMMDistLeavesOperandsUntouchedAndUnshared(t *testing.T) {
	if buf := make([]int, 8); !sharesBacking(buf[5:], buf[:2]) || sharesBacking(buf, make([]int, 8)) {
		t.Fatal("sharesBacking misjudges two windows of one array, or two arrays")
	}
	sr := semiring.PlusTimes[int64]()
	a0 := sparse.ErdosRenyi[int64](120, 5, 301)
	b0 := sparse.ErdosRenyi[int64](120, 4, 302)
	m0 := sparse.ErdosRenyi[int64](120, 30, 303)
	want := RefSpGEMM(a0, b0, sr)
	wantMasked := maskOf(want, m0)
	// Square grids read whole blocks in place; 1×p and the rectangular 2×3 /
	// 2×4 grids sweep partial bands, so B panels are views and A panels cuts.
	for _, p := range []int{4, 9, 3, 7, 13, 6, 8} {
		rt := newRT(t, p, 4)
		grid := fmt.Sprintf("p=%d (%dx%d)", p, rt.G.Pr, rt.G.Pc)
		a, b, mask := dist.MatFromCSR(rt, a0), dist.MatFromCSR(rt, b0), dist.MatFromCSR(rt, m0)
		operands := map[string]*dist.Mat[int64]{"a": a, "b": b, "mask": mask}
		before := map[string][]*sparse.CSR[int64]{}
		for name, m := range operands {
			before[name] = cloneBlocks(m)
		}
		check := func(label string, c *dist.Mat[int64], want *sparse.CSR[int64]) {
			t.Helper()
			if err := c.Validate(); err != nil {
				t.Fatalf("%s %s: %v", grid, label, err)
			}
			got, err := c.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s %s: product differs from the sequential reference", grid, label)
			}
			for name, m := range operands {
				for l, blk := range m.Blocks {
					if !blk.Equal(before[name][l]) {
						t.Errorf("%s %s: block %d of %s changed", grid, label, l, name)
					}
					for cl, cb := range c.Blocks {
						if csrSharesBacking(cb, blk) {
							t.Errorf("%s %s: product block %d shares storage with block %d of %s",
								grid, label, cl, l, name)
						}
					}
				}
			}
		}
		c, err := SpGEMMDist(rt, a, b, sr)
		if err != nil {
			t.Fatalf("%s: %v", grid, err)
		}
		check("SpGEMMDist", c, want)
		cm, err := SpGEMMDistMasked(rt, a, b, mask, sr)
		if err != nil {
			t.Fatalf("%s: %v", grid, err)
		}
		check("SpGEMMDistMasked", cm, wantMasked)
		// A second product must not disturb the first (the stage buffers are
		// arena scratch; the product is copied out of them).
		if _, err := SpGEMMDist(rt, b, a, sr); err != nil {
			t.Fatalf("%s: %v", grid, err)
		}
		check("SpGEMMDist after a second call", c, want)
	}
}
