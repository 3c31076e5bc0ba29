package gb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/inspect"
)

func cancelGraph(t *testing.T, ctx *Context) *Matrix[int64] {
	t.Helper()
	return ErdosRenyi[int64](ctx, 400, 6, 11)
}

func TestWithCancelContextTyped(t *testing.T) {
	base, err := New(Locales(4), Threads(8))
	if err != nil {
		t.Fatal(err)
	}
	a := cancelGraph(t, base)

	cctx, cancel := context.WithCancel(context.Background())
	cancel() // already gone before the query starts
	qc := base.WithCancelContext(cctx)

	if _, err := BFS(qc, a.WithContext(qc), 0); err == nil {
		t.Fatal("BFS on a canceled context succeeded")
	} else {
		if !errors.Is(err, ErrQueryCanceled) {
			t.Errorf("error does not match ErrQueryCanceled: %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error does not surface context.Canceled: %v", err)
		}
		if errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("explicit cancel reported as deadline: %v", err)
		}
	}

	if _, err := BFSDirectionOptimizing(a.WithContext(qc), 0, 0); !errors.Is(err, ErrQueryCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("DOBFS on a canceled context: got %v, want ErrQueryCanceled and context.Canceled", err)
	}

	// The base context is untouched: the same matrix still answers.
	if res, err := BFS(base, a, 0); err != nil || res.Level[0] != 0 {
		t.Fatalf("base context broken after canceled derived query: %v", err)
	}
}

func TestModeledDeadlineTyped(t *testing.T) {
	base, err := New(Locales(4), Threads(8))
	if err != nil {
		t.Fatal(err)
	}
	a := cancelGraph(t, base)

	for _, run := range []struct {
		name string
		op   func(qc *Context, m *Matrix[int64]) error
	}{
		{"bfs", func(qc *Context, m *Matrix[int64]) error { _, err := BFS(qc, m, 0); return err }},
		{"sssp", func(_ *Context, m *Matrix[int64]) error { _, _, err := SSSP(m, 0); return err }},
		{"pagerank", func(_ *Context, m *Matrix[int64]) error { _, _, err := PageRank(m, 0.85, 1e-6, 50); return err }},
		{"cc", func(_ *Context, m *Matrix[int64]) error { _, _, err := ConnectedComponents(m); return err }},
		{"triangles", func(_ *Context, m *Matrix[int64]) error { _, err := TriangleCount(m); return err }},
		{"msbfs", func(_ *Context, m *Matrix[int64]) error { _, _, err := MultiSourceBFS(m, []int{0, 1}); return err }},
		{"dobfs", func(_ *Context, m *Matrix[int64]) error { _, err := BFSDirectionOptimizing(m, 0, 0); return err }},
	} {
		qc := base.WithModeledDeadline(1) // 1ns of modeled budget: expires within the first round
		err := run.op(qc, a.WithContext(qc))
		if err == nil {
			t.Fatalf("%s: expired modeled deadline not enforced", run.name)
		}
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("%s: error does not match ErrDeadlineExceeded: %v", run.name, err)
		}
		if !errors.Is(err, ErrQueryCanceled) {
			t.Errorf("%s: deadline error does not match ErrQueryCanceled: %v", run.name, err)
		}
	}

	// A generous deadline changes nothing.
	qc := base.WithModeledDeadline(1e15)
	if _, err := BFS(qc, a.WithContext(qc), 0); err != nil {
		t.Fatalf("BFS under ample deadline failed: %v", err)
	}
}

func TestCancelMidRunWithinOneRound(t *testing.T) {
	base, err := New(Locales(4), Threads(8))
	if err != nil {
		t.Fatal(err)
	}
	a := cancelGraph(t, base)
	ref, err := BFS(base, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rounds < 3 {
		t.Fatalf("graph too shallow for a mid-run cancel: %d rounds", ref.Rounds)
	}

	// Trip the hook partway through: the run must abort with the typed error
	// instead of finishing, and must not spin far past the trip point.
	calls := 0
	qc := base.WithCancel(func() error {
		calls++
		if calls > 3 {
			return fmt.Errorf("client went away")
		}
		return nil
	})
	if _, err := BFS(qc, a.WithContext(qc), 0); !errors.Is(err, ErrQueryCanceled) {
		t.Fatalf("mid-run cancel: got %v, want ErrQueryCanceled", err)
	}

	// The shared matrix serves fault-free queries afterwards, bit for bit.
	again, err := BFS(base, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Level {
		if ref.Level[i] != again.Level[i] {
			t.Fatalf("levels diverged at %d after canceled run", i)
		}
	}
}

func TestAbsorbCalibrationPersists(t *testing.T) {
	base, err := New(Locales(4), Threads(8))
	if err != nil {
		t.Fatal(err)
	}
	a := cancelGraph(t, base)

	// A derived query context learns calibration its parent would normally
	// never see (the clone copies the inspector by value): feed the derived
	// inspector a consistent observed/estimated ratio, absorb, and the parent
	// must start estimating with it.
	qc := base.WithCancel(nil)
	if _, err := BFS(qc, a.WithContext(qc), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		qc.rt.Insp.Observe(inspect.AxisComm, uint8(inspect.CommBulk), 100, 250)
	}
	if _, seen := base.rt.Insp.Calibration(inspect.AxisComm, uint8(inspect.CommBulk)); seen {
		t.Fatal("parent saw the derived context's calibration before absorption")
	}
	base.AbsorbCalibration(qc)
	ratio, seen := base.rt.Insp.Calibration(inspect.AxisComm, uint8(inspect.CommBulk))
	if !seen {
		t.Fatal("calibration did not persist across absorption")
	}
	if math.Abs(ratio-2.5) > 0.5 {
		t.Fatalf("absorbed ratio %.3f far from observed 2.5", ratio)
	}

	// A second derived context absorbed on top blends rather than overwrites.
	qc2 := base.WithCancel(nil)
	for i := 0; i < 8; i++ {
		qc2.rt.Insp.Observe(inspect.AxisComm, uint8(inspect.CommBulk), 100, 150)
	}
	base.AbsorbCalibration(qc2)
	blended, _ := base.rt.Insp.Calibration(inspect.AxisComm, uint8(inspect.CommBulk))
	if blended >= ratio || blended < 1.0 {
		t.Fatalf("second absorption did not blend downward: %.3f -> %.3f", ratio, blended)
	}

	// Absorbing a nil or empty context is a no-op, not a crash.
	base.AbsorbCalibration(nil)
	base.AbsorbCalibration(base.WithCancel(nil))
}
