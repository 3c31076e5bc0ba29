package gb

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/inspect"
	"repro/internal/locale"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Trace is the tracing/metrics collector of internal/trace: every operation
// run through a Context that carries one reports a span (phase breakdown,
// per-locale message/byte/retry counters, engine tags). A *Trace is exported
// with trace.WriteJSON or trace.WritePrometheus. Tracing only observes the
// simulator; modeled times are identical with and without it.
type Trace = trace.Tracer

// Option configures a Context built by New. The Engine values and the
// FaultPlan and RetryPolicy types are themselves options, so a configuration
// reads as one flat list:
//
//	ctx, err := gb.New(gb.Locales(4), gb.Threads(24), gb.Bucket,
//	    gb.StandardChaosPlan(1), gb.RetryPolicy{MaxAttempts: 5},
//	    gb.Tracer(tr))
type Option interface {
	apply(*options) error
}

// optionFunc adapts a plain function to the Option interface.
type optionFunc func(*options) error

func (f optionFunc) apply(o *options) error { return f(o) }

// options collects the configuration New assembles before building the
// runtime.
type options struct {
	locales   int
	threads   int
	oneNode   bool
	workers   int
	engine    Engine
	plan      *FaultPlan
	retry     *RetryPolicy
	tracer    *Trace
	replicate bool
	recovery  *RecoveryPolicy
	epoch     *EpochPolicy
	// fusion selects the execution mode; the zero value Fused makes
	// nonblocking execution the default (see fusion.go).
	fusion FusionMode
	// strategy is the communication strategy assembled by WithStrategy; nil
	// means fully automatic (see strategy.go).
	strategy *Strategy
}

// Locales sets the locale count (default 1, one locale per node).
func Locales(p int) Option {
	return optionFunc(func(o *options) error {
		if p < 1 {
			return fmt.Errorf("gb: Locales(%d): need at least one locale", p)
		}
		o.locales = p
		return nil
	})
}

// Threads sets the modeled thread count per locale (default 1).
func Threads(t int) Option {
	return optionFunc(func(o *options) error {
		if t < 1 {
			return fmt.Errorf("gb: Threads(%d): need at least one thread", t)
		}
		o.threads = t
		return nil
	})
}

// OneNode places all locales on a single node (the paper's Fig 10
// configuration), so inter-locale traffic pays intra-node costs.
func OneNode() Option {
	return optionFunc(func(o *options) error {
		o.oneNode = true
		return nil
	})
}

// Workers sets how many goroutines shared-memory kernels actually use
// (default 1, which keeps every operation deterministic; the modeled thread
// count is independent).
func Workers(w int) Option {
	return optionFunc(func(o *options) error {
		if w < 1 {
			return fmt.Errorf("gb: Workers(%d): need at least one worker", w)
		}
		o.workers = w
		return nil
	})
}

// Tracer installs t on the new context: every subsequent operation reports a
// span into it. Equivalent to chaining WithTracer(t) after New.
func Tracer(t *Trace) Option {
	return optionFunc(func(o *options) error {
		o.tracer = t
		return nil
	})
}

// apply makes an Engine usable directly as a New option:
// gb.New(gb.Bucket) or gb.New(gb.Engine(gb.MergeSort)).
func (e Engine) apply(o *options) error {
	switch e {
	case EngineMergeSort, EngineRadixSort, EngineBucket:
		o.engine = e
		return nil
	}
	return fmt.Errorf("gb: unknown engine %d", int(e))
}

// apply makes a FaultPlan usable directly as a New option.
func (p FaultPlan) apply(o *options) error {
	o.plan = &p
	return nil
}

// apply makes a RetryPolicy usable directly as a New option.
func (rp RetryPolicy) apply(o *options) error {
	o.retry = &rp
	return nil
}

// New builds a Context from functional options. The defaults are one locale,
// one thread, the bucket SpMSpV engine, the automatic communication strategy
// (gb.Auto — see WithStrategy), no faults and no tracing — a deterministic
// single-node configuration on the Edison machine model.
//
// New is the one way to build a Context — a single call expresses any
// combination (the With* methods derive from a context that exists):
//
//	ctx, err := gb.New(gb.Locales(16), gb.Threads(24), gb.Engine(gb.Bucket),
//	    gb.WithStrategy(gb.ForceBulk), gb.StandardChaosPlan(7),
//	    gb.RetryPolicy{MaxAttempts: 5})
func New(opts ...Option) (*Context, error) {
	o := options{locales: 1, threads: 1, engine: EngineBucket}
	for _, op := range opts {
		if op == nil {
			continue
		}
		if err := op.apply(&o); err != nil {
			return nil, err
		}
	}
	var rt *locale.Runtime
	if o.oneNode {
		g, err := locale.NewGridOnOneNode(o.locales)
		if err != nil {
			return nil, err
		}
		rt = locale.NewWithGrid(machine.Edison(), g, o.threads)
	} else {
		var err error
		rt, err = locale.New(machine.Edison(), o.locales, o.threads)
		if err != nil {
			return nil, err
		}
	}
	ctx := &Context{rt: rt, fusion: o.fusion}
	rt.Fusion = o.fusion == Fused
	strat := inspect.Strategy{}
	if o.strategy != nil {
		strat = o.strategy.inner
		if o.strategy.engine != 0 {
			o.engine = o.strategy.engine
		}
	}
	rt.Insp = inspect.New(strat)
	if err := ctx.setEngine(o.engine); err != nil {
		return nil, err
	}
	if o.workers > 0 {
		rt.RealWorkers = o.workers
	}
	if o.plan != nil {
		rt.WithFault(fault.Plan(*o.plan))
	}
	if o.retry != nil {
		rt.Retry = fault.RetryPolicy(*o.retry)
	}
	if o.recovery != nil {
		rt.Recovery = *o.recovery
	}
	ctx.replicate = o.replicate
	if o.epoch != nil {
		ctx.epoch = *o.epoch
	}
	if o.tracer != nil {
		rt.SetTracer(o.tracer)
	}
	return ctx, nil
}
