package comm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/health"
	"repro/internal/locale"
	"repro/internal/semiring"
)

// The typed-error audit: every collective's failure path must surface a
// locale loss such that errors.Is matches fault.ErrLocaleLost AND errors.As
// recovers the lost locale id, with the collective's name in the message.

const lostLoc = 2

// crashedRT returns a 4-locale (2×2 grid) runtime whose locale 2 is
// permanently down from the very first transfer step.
func crashedRT(t *testing.T) *locale.Runtime {
	t.Helper()
	return newRT(t, 4).WithFault(fault.Plan{Seed: 1, CrashLocale: lostLoc, CrashStep: 0})
}

func TestCollectiveErrorPathsCarryLostLocale(t *testing.T) {
	vals := []int64{3, 1, 4, 1}
	parts := [][]int64{{1, 2}, {3}, {4, 5}, {6}}
	// Cross-locale index runs (bounds are [0,10,20,30,40) for n=40, P=4), so
	// ColMergeScatter actually routes segments through the dead locale.
	inds := [][]int{{20, 21}, {10}, {0, 5}, {30}}
	cases := []struct {
		name, op string
		run      func(rt *locale.Runtime) error
	}{
		{"Broadcast", "broadcast", func(rt *locale.Runtime) error {
			_, err := Broadcast(rt, 0, []int64{1, 2, 3})
			return err
		}},
		{"Gather", "gather", func(rt *locale.Runtime) error {
			_, err := Gather(rt, 0, parts)
			return err
		}},
		{"AllGather", "gather", func(rt *locale.Runtime) error {
			_, err := AllGather(rt, parts)
			return err
		}},
		{"Reduce", "reduce", func(rt *locale.Runtime) error {
			_, err := Reduce(rt, 0, vals, semiring.PlusMonoid[int64]())
			return err
		}},
		{"AllReduce", "reduce", func(rt *locale.Runtime) error {
			_, err := AllReduce(rt, vals, semiring.MaxMonoid[int64]())
			return err
		}},
		{"RowAllGather", "rowallgather", func(rt *locale.Runtime) error {
			_, err := RowAllGather(rt, parts)
			return err
		}},
		{"ColReduceScatter", "colreducescatter", func(rt *locale.Runtime) error {
			_, err := ColReduceScatter(rt, parts, semiring.PlusMonoid[int64]())
			return err
		}},
		{"SparseRowAllGather", "sparserowallgather", func(rt *locale.Runtime) error {
			_, _, err := SparseRowAllGather(rt, inds, parts)
			return err
		}},
		{"ColMergeScatter", "colmergescatter", func(rt *locale.Runtime) error {
			_, _, err := ColMergeScatter(rt, 40, inds, parts, nil)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt := crashedRT(t)
			err := c.run(rt)
			if err == nil {
				t.Fatal("collective touching a dead locale must fail")
			}
			if !errors.Is(err, fault.ErrLocaleLost) {
				t.Errorf("errors.Is(err, ErrLocaleLost) = false for %v", err)
			}
			var ll *fault.LocaleLostError
			if !errors.As(err, &ll) {
				t.Fatalf("errors.As(*LocaleLostError) = false for %v", err)
			}
			if ll.Locale != lostLoc {
				t.Errorf("lost locale = %d, want %d", ll.Locale, lostLoc)
			}
			if !strings.Contains(err.Error(), c.op) {
				t.Errorf("error %q should name the collective %q", err, c.op)
			}
			// The failed attempt must also have driven the failure detector.
			if st := rt.Health.States()[lostLoc]; st != health.Suspect {
				t.Errorf("detector state of lost locale = %v, want suspect", st)
			}
			// A collective that fails returns what it borrowed from the arena.
			if got := rt.Scratch.Outstanding(); got != 0 {
				t.Errorf("%d arena loans outstanding after the failure", got)
			}
		})
	}
}

func TestRetriesExhaustedWrapsTypedError(t *testing.T) {
	rt := newRT(t, 4).WithFault(fault.Plan{Seed: 3, DropProb: 1, CrashLocale: -1})
	rt.Retry = fault.RetryPolicy{MaxAttempts: 3}
	_, err := Broadcast(rt, 0, []int64{1})
	if !errors.Is(err, fault.ErrRetriesExhausted) {
		t.Fatalf("errors.Is(err, ErrRetriesExhausted) = false for %v", err)
	}
	var re *fault.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("errors.As(*RetryError) = false for %v", err)
	}
	if re.Attempts != 3 || re.Op != "broadcast" {
		t.Errorf("RetryError = %+v, want 3 attempts on broadcast", re)
	}
	if !strings.Contains(err.Error(), "broadcast") {
		t.Errorf("error %q should name the collective", err)
	}
}
