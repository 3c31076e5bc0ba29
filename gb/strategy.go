package gb

import (
	"fmt"

	"repro/internal/inspect"
)

// Strategy is the unified communication-strategy configuration of a Context.
// It covers the three dispatch axes the inspector–executor layer selects per
// operation — fine-grained element traffic vs bulk collectives, push vs pull
// traversal, per-stage broadcasts vs prefetched panels for the SUMMA
// SpGEMM — plus an optional
// shared-memory engine pin. The zero value is fully automatic: every axis is
// decided per operation from modeled costs and the calibration history.
//
// A Strategy is assembled from StrategyOptions and installed with
// WithStrategy, either at construction (gb.New(gb.WithStrategy(gb.ForceBulk)))
// or on a derived context (ctx.WithStrategy(gb.ForcePull)). It replaces the
// scattered knobs of earlier versions:
//
//	old knob                           Strategy equivalent
//	------------------------------     -----------------------------------
//	hardcoded fine-grained SpMSpV      gb.ForceFine (auto otherwise)
//	call-site SpMSpVDistBulk           gb.ForceBulk
//	BFSDirectionOptimizing alpha>0     gb.PullThreshold(alpha)
//	always-push / always-pull BFS      gb.ForcePush / gb.ForcePull
//	implicit row-team all-gather       always: SpMV's one placement
//	replicated SpMV input vector       none (gb.ForceReplicate: SpGEMM only)
//	engine option of New               gb.PinEngine(e)
type Strategy struct {
	inner  inspect.Strategy
	engine Engine // 0 = no pin
}

// String renders the strategy in the "axis=choice" vocabulary of decision
// tables and span tags.
func (s Strategy) String() string {
	out := fmt.Sprintf("comm=%s dir=%s place=%s",
		s.inner.Comm, s.inner.Dir, s.inner.Place)
	if s.inner.PullThreshold > 0 {
		out += fmt.Sprintf(" pull-threshold=%d", s.inner.PullThreshold)
	}
	if s.engine != 0 {
		out += fmt.Sprintf(" engine=%d", int(s.engine))
	}
	return out
}

// StrategyOption configures one aspect of a Strategy.
type StrategyOption interface {
	applyStrategy(*Strategy) error
}

// strategyOptionFunc adapts a plain function to the StrategyOption interface.
type strategyOptionFunc func(*Strategy) error

func (f strategyOptionFunc) applyStrategy(s *Strategy) error { return f(s) }

// Strategy options. Auto resets every axis to inspector-driven selection (the
// default); the Force* options pin one axis each and compose freely with the
// others.
var (
	// Auto clears every pin: all three axes are decided per operation from
	// modeled costs, calibrated by observed outcomes.
	Auto StrategyOption = strategyOptionFunc(func(s *Strategy) error { *s = Strategy{}; return nil })
	// ForceFine pins the fine-grained per-element communication paths — the
	// paper's idiomatic Listings.
	ForceFine StrategyOption = strategyOptionFunc(func(s *Strategy) error { s.inner.Comm = inspect.CommFine; return nil })
	// ForceBulk pins the bulk collectives (sparse all-gather / merge-scatter).
	ForceBulk StrategyOption = strategyOptionFunc(func(s *Strategy) error { s.inner.Comm = inspect.CommBulk; return nil })
	// ForcePush pins top-down frontier expansion in the direction-optimizing
	// traversals.
	ForcePush StrategyOption = strategyOptionFunc(func(s *Strategy) error { s.inner.Dir = inspect.DirPush; return nil })
	// ForcePull pins bottom-up in-neighbor scanning.
	ForcePull StrategyOption = strategyOptionFunc(func(s *Strategy) error { s.inner.Dir = inspect.DirPull; return nil })
	// ForceGather pins the on-demand placement of operand data: the
	// per-stage panel broadcasts of the SUMMA SpGEMM. (The SpMV input is
	// always gathered along row teams; replicating it never prices lower.)
	ForceGather StrategyOption = strategyOptionFunc(func(s *Strategy) error { s.inner.Place = inspect.PlaceGather; return nil })
	// ForceReplicate pins up-front replication for the SUMMA SpGEMM: all
	// panels prefetched before the stage loop (one team-wide exchange
	// instead of √P staged broadcasts). It does not change SpMV.
	ForceReplicate StrategyOption = strategyOptionFunc(func(s *Strategy) error { s.inner.Place = inspect.PlaceReplicate; return nil })
)

// PullThreshold replays the legacy direction-optimizing rule: pull while
// nnz(frontier) > n/t, instead of the cost model. It applies only while the
// direction axis is otherwise Auto (a ForcePush/ForcePull pin wins).
func PullThreshold(t int) StrategyOption {
	return strategyOptionFunc(func(s *Strategy) error {
		if t < 1 {
			return fmt.Errorf("gb: PullThreshold(%d): need a positive threshold", t)
		}
		s.inner.PullThreshold = t
		return nil
	})
}

// PinEngine pins the shared-memory SpMSpV engine as part of a Strategy —
// equivalent to passing the Engine to New, for configurations that keep all
// execution-shape choices in one WithStrategy call.
func PinEngine(e Engine) StrategyOption {
	return strategyOptionFunc(func(s *Strategy) error {
		switch e {
		case EngineMergeSort, EngineRadixSort, EngineBucket:
			s.engine = e
			return nil
		}
		return fmt.Errorf("gb: PinEngine: unknown engine %d", int(e))
	})
}

// buildStrategy folds opts over a base strategy.
func buildStrategy(base Strategy, opts []StrategyOption) (Strategy, error) {
	s := base
	for _, op := range opts {
		if op == nil {
			continue
		}
		if err := op.applyStrategy(&s); err != nil {
			return Strategy{}, err
		}
	}
	return s, nil
}

// WithStrategy returns a New option installing the assembled strategy on the
// context's inspector: gb.New(gb.WithStrategy(gb.ForceBulk, gb.ForcePull)).
// Without it, contexts default to gb.Auto.
func WithStrategy(opts ...StrategyOption) Option {
	return optionFunc(func(o *options) error {
		base := Strategy{}
		if o.strategy != nil {
			base = *o.strategy
		}
		s, err := buildStrategy(base, opts)
		if err != nil {
			return err
		}
		o.strategy = &s
		return nil
	})
}

// WithStrategy returns a context whose subsequent operations dispatch under
// the derived strategy: the receiver's strategy with opts applied on top, on
// a fresh inspector (empty calibration and decision history — the derived
// context prices its own workload from scratch). Pending deferred operations
// on the receiver are materialized first; the receiver is not modified.
func (c *Context) WithStrategy(opts ...StrategyOption) (*Context, error) {
	s, err := buildStrategy(c.Strategy(), opts)
	if err != nil {
		return nil, err
	}
	nc := c.clone()
	nc.rt.Insp = inspect.New(s.inner)
	if s.engine != 0 {
		if err := nc.setEngine(s.engine); err != nil {
			return nil, err
		}
	}
	return nc, nil
}

// Strategy returns the strategy the context's inspector implements (the zero
// Strategy — fully automatic — on a context without one). The engine pin is
// not recoverable from the runtime and reads back as unpinned.
func (c *Context) Strategy() Strategy {
	if c.rt.Insp == nil {
		return Strategy{}
	}
	return Strategy{inner: c.rt.Insp.Strategy()}
}

// StrategyTable renders the context's retained dispatch decisions, one
// "op axis=choice reason" line per decision, oldest first — the golden-table
// format of the determinism tests. Pending deferred operations are
// materialized first so the table covers every issued operation.
func (c *Context) StrategyTable() string {
	c.force()
	if c.rt.Insp == nil {
		return ""
	}
	return c.rt.Insp.Table()
}
