// Package comm provides the collective communication operations the paper's
// discussion asks for ("MPI provides functions for a number of team
// collectives. Support for these operations is expected to improve the
// productivity and performance of graph algorithms"): reduce and all-reduce
// over the locale grid, the row/column team collectives matching the 2-D
// distribution, and the sparse and team-broadcast collectives of SpMSpV and
// SpGEMM. A collective whose cost code outside this package estimates
// charges through the exported price the estimate calls (RowAllGatherTime,
// ColReduceTime, SparseRowAllGatherTime, TeamBroadcastTime, and the sparse
// message and merge prices), so a price and its charge cannot drift apart.
//
// Like everything else in this library, the collectives move real data and
// charge the machine model for the communication structure: tree-based
// collectives cost log2(P) rounds of bulk transfers.
//
// The two team collectives of the distributed SpMV, RowAllGather and
// ColReduceScatter, hand the members of a team one shared read-only buffer
// instead of a copy each — the locales live in one address space, and their
// consumers only read. The buffer is on loan from the runtime's scratch arena
// and goes back through ReleaseRowGather / ReleaseColReduce. The charges are
// unchanged: every member is billed for the transfer that would have brought
// it its copy.
//
// Every collective is retryable: each logical transfer consults the
// runtime's fault injector (internal/fault) and, when an attempt is dropped,
// pays a detection timeout plus an exponential backoff (capped by the
// runtime's retry policy) before the resend — all charged to the modeled
// clock, so the figures show the cost of resilience. A transfer whose
// endpoint has permanently crashed fails with fault.ErrLocaleLost; a
// transfer dropped more than MaxAttempts times fails with
// fault.ErrRetriesExhausted. Without an installed injector the fault-free
// path charges exactly what it always did.
package comm

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/locale"
	"repro/internal/semiring"
	"repro/internal/sparse"
)

// bytesOf estimates the wire size of n elements of a numeric type (8 bytes
// per element — the library's element types are word-sized).
func bytesOf(n int) int64 { return int64(n) * 8 }

// treeDepth returns ceil(log2(p)), minimum 0.
func treeDepth(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// retryExtra plays one fault-checked logical transfer from src to dst under
// the runtime's retry policy and returns the extra modeled time beyond the
// first clean send: injected delays, plus (timeout + backoff + resend) for
// every dropped attempt. Retries are recorded in the simulator's counters.
// A crashed endpoint returns an error wrapping fault.ErrLocaleLost (with the
// lost locale id reachable via errors.As) after one detection timeout;
// exhausting the attempt budget returns one wrapping ErrRetriesExhausted.
// Both are annotated with the collective and the endpoint pair.
//
// Every attempt doubles as a health probe: a clean or merely-dropped transfer
// is evidence both endpoints are alive (their modeled heartbeats are current),
// while a crash verdict reports the lost endpoint down — so the failure
// detector's timeline is built from the traffic the algorithms were sending
// anyway, with no modeled cost of its own.
func retryExtra(rt *locale.Runtime, src, dst int, resendNS float64, op string) (float64, error) {
	if err := rt.Canceled(); err != nil {
		return 0, fmt.Errorf("comm: %s %d→%d: %w", op, src, dst, err)
	}
	if rt.Fault == nil {
		return 0, nil
	}
	pol := rt.RetryPolicy()
	extra := 0.0
	backoff := pol.BackoffNS
	for attempt := 1; ; attempt++ {
		v, err := rt.FaultAttempt(src, dst)
		if err != nil {
			// The failure is detected by the timeout, not reported politely.
			var ll *fault.LocaleLostError
			if errors.As(err, &ll) {
				rt.Health.Observe(ll.Locale, true, rt.S.Elapsed())
			}
			return extra + pol.TimeoutNS, fmt.Errorf("comm: %s %d→%d: %w", op, src, dst, err)
		}
		rt.Health.Observe(src, false, rt.S.Elapsed())
		rt.Health.Observe(dst, false, rt.S.Elapsed())
		extra += v.ExtraNS
		if !v.Drop {
			if attempt > 1 {
				rt.S.NoteRetries(dst, int64(attempt-1))
			}
			return extra, nil
		}
		if attempt >= pol.MaxAttempts {
			rt.S.NoteRetries(dst, int64(attempt-1))
			return extra + pol.TimeoutNS, fmt.Errorf("comm: %s %d→%d: %w",
				op, src, dst, &fault.RetryError{Op: op, Src: src, Dst: dst, Attempts: attempt})
		}
		wait := pol.TimeoutNS + backoff + resendNS
		// A caller-imposed modeled deadline caps the cumulative retry time:
		// when the next timeout+backoff+resend would not fit in the remaining
		// budget, charge only what is left and fail immediately instead of
		// sleeping out the rest of the schedule.
		if remaining := rt.DeadlineRemainingNS() - extra; wait > remaining {
			if remaining > 0 {
				extra += remaining
			}
			rt.S.NoteRetries(dst, int64(attempt-1))
			return extra, fmt.Errorf("comm: %s %d→%d: retry budget exhausted after %d attempts: %w",
				op, src, dst, attempt, locale.ErrDeadlineExceeded)
		}
		extra += wait
		backoff *= 2
		if backoff > pol.MaxBackoffNS {
			backoff = pol.MaxBackoffNS
		}
	}
}

// Reduce folds one value per locale into a single value at the root with a
// monoid, charging a log2(P)-depth reduction tree of tiny messages.
func Reduce[T semiring.Number](rt *locale.Runtime, root int, vals []T, m semiring.Monoid[T]) (T, error) {
	defer rt.Span("Reduce").End()
	acc := m.Identity
	for _, v := range vals {
		acc = m.Op(acc, v)
	}
	p := rt.G.P
	if p > 1 {
		base := rt.S.BulkTime(8, false) * treeDepth(p)
		for l := 0; l < p; l++ {
			per := base
			if l != root {
				extra, err := retryExtra(rt, l, root, base, "reduce")
				if err != nil {
					return acc, err
				}
				per += extra
			}
			rt.S.Advance(l, per)
		}
	}
	return acc, nil
}

// AllReduce folds one value per locale and makes the result available on
// every locale (reduce + broadcast tree).
func AllReduce[T semiring.Number](rt *locale.Runtime, vals []T, m semiring.Monoid[T]) (T, error) {
	defer rt.Span("AllReduce").End()
	v, err := Reduce(rt, 0, vals, m)
	if err != nil {
		return v, err
	}
	if rt.G.P > 1 {
		base := rt.S.BulkTime(8, false) * treeDepth(rt.G.P)
		for l := 0; l < rt.G.P; l++ {
			per := base
			if l != 0 {
				extra, err := retryExtra(rt, 0, l, base, "allreduce")
				if err != nil {
					return v, err
				}
				per += extra
			}
			rt.S.Advance(l, per)
		}
	}
	return v, nil
}

// RowAllGather concatenates, for every locale, the slices of its processor
// row's team (the communication pattern of the SpMSpV gather step, done with
// collectives instead of fine-grained access). Returns one concatenation per
// locale.
//
// The members of a team share one read-only buffer, on loan from the
// runtime's arena: nobody writes the result, and the caller hands it to
// ReleaseRowGather when done. A caller that keeps it instead — the
// benchmark's comm.RowAllGather rung, which times the collective alone, is
// one — leaves the arena to allocate the next and its Outstanding count
// raised by Pr per call; nothing else depends on the release. The charges are
// those of a team in which every member holds its own copy. On an error every
// buffer lent so far is returned.
func RowAllGather[T semiring.Number](rt *locale.Runtime, parts [][]T) ([][]T, error) {
	defer rt.Span("RowAllGather").End()
	g := rt.G
	out := make([][]T, g.P)
	for r := 0; r < g.Pr; r++ {
		leader := g.ID(r, 0)
		total := 0
		for c := 0; c < g.Pc; c++ {
			total += len(parts[g.ID(r, c)])
		}
		joined := sparse.GetSlice[T](rt.Scratch, total)[:0]
		for c := 0; c < g.Pc; c++ {
			joined = append(joined, parts[g.ID(r, c)]...)
		}
		// Tree all-gather within the team. The leader's entry is set before
		// any transfer can fail, so the error path finds every loan in out.
		base := RowAllGatherTime(rt, total)
		for c := 0; c < g.Pc; c++ {
			l := g.ID(r, c)
			per := base
			if l != leader {
				extra, err := retryExtra(rt, leader, l, base, "rowallgather")
				if err != nil {
					ReleaseRowGather(rt, out)
					return nil, err
				}
				per += extra
			}
			rt.S.Advance(l, per)
			out[l] = joined
		}
	}
	return out, nil
}

// RowAllGatherTime is what RowAllGather charges every member of a row team
// whose parts total n elements, fault-free: a tree of depth log2(Pc) moving
// the team's concatenation.
func RowAllGatherTime(rt *locale.Runtime, n int) float64 {
	return rt.S.BulkTime(bytesOf(n), false) * treeDepth(rt.G.Pc)
}

// ReleaseRowGather returns the team buffers of a RowAllGather result to the
// arena; the result must not be read afterwards.
func ReleaseRowGather[T semiring.Number](rt *locale.Runtime, out [][]T) {
	for r := 0; r < rt.G.Pr; r++ {
		sparse.PutSlice(rt.Scratch, out[rt.G.ID(r, 0)])
	}
}

// ColReduceScatter reduces, for every grid column team, one dense slice per
// member elementwise with a monoid, leaving each member with the reduced
// slice (the communication pattern of a column-wise SpMV accumulation).
//
// As with RowAllGather, the members of a team share one read-only buffer on
// loan from the arena, returned with ReleaseColReduce, and the charges are
// unchanged. The fold starts from the identity and takes the members in team
// order; for the built-in plus monoid (Monoid.Kind) it runs inline, bit for
// bit the operator. A min or max reduction needs no fold: its members write
// into one shared band in team order (LendColBands, ColReduceInPlace).
func ColReduceScatter[T semiring.Number](rt *locale.Runtime, parts [][]T, m semiring.Monoid[T]) ([][]T, error) {
	defer rt.Span("ColReduceScatter").End()
	g := rt.G
	kind := m.Kind()
	out := make([][]T, g.P)
	for c := 0; c < g.Pc; c++ {
		width := 0
		for r := 0; r < g.Pr; r++ {
			width = max(width, len(parts[g.ID(r, c)]))
		}
		acc := sparse.GetSlice[T](rt.Scratch, width)
		for i := range acc {
			acc[i] = m.Identity
		}
		for r := 0; r < g.Pr; r++ {
			foldInto(acc, parts[g.ID(r, c)], m.Op, kind)
			out[g.ID(r, c)] = acc
		}
	}
	if err := chargeColReduce(rt, out); err != nil {
		return nil, err
	}
	return out, nil
}

// LendColBands lends, for every grid column team c, one band of
// bounds[c+1]-bounds[c] elements that its members share: out[l] is the band
// of l's grid column. The members reduce into it in place, in team order,
// and ColReduceInPlace charges the collective; ReleaseColReduce returns the
// bands. Their contents are not cleared.
func LendColBands[T semiring.Number](rt *locale.Runtime, bounds []int) [][]T {
	g := rt.G
	out := make([][]T, g.P)
	for c := 0; c < g.Pc; c++ {
		band := sparse.GetSlice[T](rt.Scratch, bounds[c+1]-bounds[c])
		for r := 0; r < g.Pr; r++ {
			out[g.ID(r, c)] = band
		}
	}
	return out
}

// ColReduceInPlace is ColReduceScatter for bands the column teams have
// already reduced into (LendColBands): it moves no data and charges exactly
// what ColReduceScatter charges for slices of the bands' widths. On an error
// the bands are returned to the arena.
func ColReduceInPlace[T semiring.Number](rt *locale.Runtime, out [][]T) error {
	defer rt.Span("ColReduceScatter").End()
	return chargeColReduce(rt, out)
}

// chargeColReduce charges one column-team reduce per grid column: a tree of
// depth log2(Pr) moving the team's slice out[leader], with every member but
// the leader fault-checked. On an error it returns out's buffers.
func chargeColReduce[T semiring.Number](rt *locale.Runtime, out [][]T) error {
	g := rt.G
	for c := 0; c < g.Pc; c++ {
		leader := g.ID(0, c)
		base := ColReduceTime(rt, len(out[leader]))
		for r := 0; r < g.Pr; r++ {
			l := g.ID(r, c)
			per := base
			if l != leader {
				extra, err := retryExtra(rt, leader, l, base, "colreducescatter")
				if err != nil {
					ReleaseColReduce(rt, out)
					return err
				}
				per += extra
			}
			rt.S.Advance(l, per)
		}
	}
	return nil
}

// ColReduceTime is what ColReduceScatter (or ColReduceInPlace) charges
// every member of a column team whose slice is n elements wide, fault-free:
// a tree of depth log2(Pr) moving the slice.
func ColReduceTime(rt *locale.Runtime, n int) float64 {
	return rt.S.BulkTime(bytesOf(n), false) * treeDepth(rt.G.Pr)
}

// ReleaseColReduce returns the team buffers of a ColReduceScatter result to
// the arena; the result must not be read afterwards.
func ReleaseColReduce[T semiring.Number](rt *locale.Runtime, out [][]T) {
	for c := 0; c < rt.G.Pc; c++ {
		sparse.PutSlice(rt.Scratch, out[rt.G.ID(0, c)])
	}
}

// foldInto accumulates acc[i] = acc[i] ⊕ part[i] over part's length.
func foldInto[T semiring.Number](acc, part []T, op semiring.BinaryOp[T], kind semiring.MonoidKind) {
	acc = acc[:len(part)]
	switch kind {
	case semiring.MonoidPlus:
		for i, v := range part {
			acc[i] += v
		}
	default:
		for i, v := range part {
			acc[i] = op(acc[i], v)
		}
	}
}
