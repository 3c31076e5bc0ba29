package algorithms

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/locale"
	"repro/internal/semiring"
)

// checkpointInterval is the number of completed rounds between state
// snapshots when a fault plan is installed on the runtime. Fault-free runs
// take no checkpoints at all, so the paper's figures are unaffected by the
// fault-tolerance machinery.
const checkpointInterval = 4

// checkpoint is the iteration state a round loop snapshots under a fault
// plan: save copies it aside, load puts the copy back, bytes is its size for
// the modeled write. The zero checkpoint suits a loop whose only state is
// the matrix the recovery repairs: it is never snapshotted, and every
// recovery reruns the interrupted round.
type checkpoint struct {
	bytes      int64
	save, load func()
}

// runRounds is the round loop of every recovering distributed algorithm. It
// calls round(i), i the number of rounds completed so far, until round
// reports done, and returns the number of completed rounds, the last one
// included. Around each round it
//
//   - polls rt.Canceled, wrapping its error as "algorithms: <name>: ...";
//   - under a fault plan, snapshots ck every checkpointInterval completed
//     rounds, except right after a rollback restored that very snapshot;
//   - on a round error reporting a permanent locale loss, recovers *m (the
//     matrix round reads) once per run under the runtime's recovery policy
//     (core.Recover), then rolls back to the snapshot (redistribute,
//     failover) or reruns the interrupted round (best effort). Any other
//     error, and a second loss, propagates.
func runRounds[T semiring.Number](rt *locale.Runtime, name string, m **dist.Mat[T], ck checkpoint, round func(i int) (done bool, err error)) (int, error) {
	completed, snapAt := 0, 0
	recovered, restored := false, false
	for {
		if err := rt.Canceled(); err != nil {
			return 0, fmt.Errorf("algorithms: %s: %w", name, err)
		}
		if rt.Fault != nil && ck.save != nil && completed%checkpointInterval == 0 && !restored {
			ck.save()
			snapAt = completed
			chargeCheckpoint(rt, ck.bytes)
		}
		restored = false
		done, err := round(completed)
		if err == nil {
			completed++
			if done {
				return completed, nil
			}
			continue
		}
		lost := lostLocale(err)
		if lost < 0 || recovered {
			return 0, err
		}
		recovered = true
		nm, rollback, err := core.Recover(rt, *m, lost)
		if err != nil {
			return 0, err
		}
		*m = nm
		if rollback && ck.load != nil {
			ck.load()
			completed, restored = snapAt, true
		}
	}
}

// lostLocale extracts the crashed locale from err, or -1 when err does not
// report a permanent locale loss.
func lostLocale(err error) int {
	var ll *fault.LocaleLostError
	if errors.As(err, &ll) {
		return ll.Locale
	}
	return -1
}

// chargeCheckpoint charges every locale the bulk write of its share of a
// totalBytes-sized state snapshot to node-local storage.
func chargeCheckpoint(rt *locale.Runtime, totalBytes int64) {
	per := totalBytes / int64(rt.G.P)
	t := rt.S.BulkTime(per, true)
	for l := 0; l < rt.G.P; l++ {
		rt.S.Advance(l, t)
	}
}
