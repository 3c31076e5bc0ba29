// Package fault provides deterministic, seedable fault injection for the
// simulated distributed runtime. A Plan describes which failures to inject
// (message drops, message delays, transient locale stalls, and one permanent
// locale crash at a chosen step); an Injector draws those faults from a
// counter-based PRNG so that a given (plan, call sequence) always produces
// the same failures — which is what lets the chaos tests demand bitwise
// reproducibility of the recovered results.
//
// The injector is threaded through the stack at two levels:
//
//   - internal/sim consults it (through the sim.Hook interface) on every
//     charged bulk or fine-grained transfer; injected delays and stalls are
//     absorbed transparently into the modeled clock, the way a conduit-level
//     retransmit would be.
//   - internal/comm consults it explicitly (Attempt) for every collective
//     transfer; drops there are visible to the caller, which retries with
//     timeout + exponential backoff and surfaces ErrRetriesExhausted when
//     the budget is exceeded.
//
// A planned crash marks the locale permanently down once the injector's step
// counter reaches CrashStep; collectives touching a down locale fail with
// ErrLocaleLost, and the algorithms' checkpoint/restart paths degrade the
// runtime onto the survivors (locale.Runtime.Degrade) before replaying.
package fault

import (
	"errors"
	"fmt"
	"sync"
)

// Sentinel errors, matchable with errors.Is through the typed errors below.
var (
	// ErrLocaleLost reports a permanent locale crash observed by a transfer.
	ErrLocaleLost = errors.New("fault: locale lost")
	// ErrRetriesExhausted reports a collective transfer that kept being
	// dropped until its retry budget ran out.
	ErrRetriesExhausted = errors.New("fault: retries exhausted")
)

// LocaleLostError identifies which locale was lost.
type LocaleLostError struct {
	Locale int
}

func (e *LocaleLostError) Error() string {
	return fmt.Sprintf("fault: locale %d lost", e.Locale)
}

// Is makes errors.Is(err, ErrLocaleLost) match.
func (e *LocaleLostError) Is(target error) bool { return target == ErrLocaleLost }

// Lost wraps a locale id as a LocaleLostError.
func Lost(locale int) error { return &LocaleLostError{Locale: locale} }

// RetryError reports an exhausted retry budget on one collective transfer.
type RetryError struct {
	Op       string // collective name
	Src, Dst int    // endpoints of the failing transfer
	Attempts int    // attempts made before giving up
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("fault: %s %d->%d: retries exhausted after %d attempts",
		e.Op, e.Src, e.Dst, e.Attempts)
}

// Is makes errors.Is(err, ErrRetriesExhausted) match.
func (e *RetryError) Is(target error) bool { return target == ErrRetriesExhausted }

// Plan is a deterministic fault plan. The zero value injects nothing; set
// CrashLocale to -1 (or leave every probability at zero) for a fault-free
// plan. All probabilities are per transfer step.
type Plan struct {
	// Seed keys the deterministic fault sequence.
	Seed int64
	// DropProb is the probability a collective transfer attempt is dropped
	// (forcing a timeout + backoff + resend at the caller).
	DropProb float64
	// DelayProb/DelayNS inject a fixed extra latency on a transfer.
	DelayProb float64
	DelayNS   float64
	// StallProb/StallNS model a transient locale stall (OS jitter, GC pause)
	// charged around a transfer.
	StallProb float64
	StallNS   float64
	// CrashLocale, when >= 0, is the locale that permanently dies once the
	// injector's step counter reaches CrashStep. A CrashLocale outside the
	// grid never fires.
	CrashLocale int
	// CrashStep is the transfer step at which the crash occurs.
	CrashStep int64
	// MergeCrashLocale/MergeCrashEpoch plant a crash inside an epoch merge:
	// the locale dies the moment it starts merging its delta for the given
	// committed-epoch target. Enabled only when MergeCrashEpoch > 0 (epochs
	// commit from 1), so the zero value never fires. Independent of the
	// step-counter crash: a plan may carry both, modeling a second loss
	// arriving while an earlier one is being repaired.
	MergeCrashLocale int
	MergeCrashEpoch  int64
}

// StandardChaos is the stock fault plan of the -chaos bench mode: 2% drops,
// 5% delays of 250µs, 1% stalls of 2ms, no crash. Deterministic under seed.
func StandardChaos(seed int64) Plan {
	return Plan{
		Seed:        seed,
		DropProb:    0.02,
		DelayProb:   0.05,
		DelayNS:     250_000,
		StallProb:   0.01,
		StallNS:     2_000_000,
		CrashLocale: -1,
	}
}

// RetryPolicy governs how the retryable collectives respond to dropped
// transfers: each failed attempt pays TimeoutNS (failure detection) plus an
// exponential backoff starting at BackoffNS and capped at MaxBackoffNS
// before the resend, up to MaxAttempts total attempts.
type RetryPolicy struct {
	MaxAttempts  int
	TimeoutNS    float64
	BackoffNS    float64
	MaxBackoffNS float64
}

// DefaultRetryPolicy returns the stock policy: 6 attempts, 500µs timeout,
// backoff 100µs doubling up to 5ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 6, TimeoutNS: 500_000, BackoffNS: 100_000, MaxBackoffNS: 5_000_000}
}

// WithDefaults fills zero fields from DefaultRetryPolicy, so a zero
// RetryPolicy means "use the defaults".
func (rp RetryPolicy) WithDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = def.MaxAttempts
	}
	if rp.TimeoutNS <= 0 {
		rp.TimeoutNS = def.TimeoutNS
	}
	if rp.BackoffNS <= 0 {
		rp.BackoffNS = def.BackoffNS
	}
	if rp.MaxBackoffNS <= 0 {
		rp.MaxBackoffNS = def.MaxBackoffNS
	}
	return rp
}

// Stats counts the faults an injector has dealt out.
type Stats struct {
	Steps   int64 // transfer steps drawn
	Drops   int64 // collective transfer attempts dropped
	Delays  int64 // injected delays
	Stalls  int64 // injected stalls
	Crashes int64 // locale crashes fired (step crash + merge crash, 0–2 per plan)
}

// Verdict is the outcome of one collective transfer attempt.
type Verdict struct {
	// Drop marks the attempt as lost; the caller must retry or fail.
	Drop bool
	// ExtraNS is injected latency (delay and/or stall) to charge to the
	// modeled clock of the participants.
	ExtraNS float64
}

// Injector draws faults from a Plan. All methods are safe for concurrent use
// and safe on a nil receiver (a nil injector injects nothing).
type Injector struct {
	plan Plan

	mu             sync.Mutex
	p              int
	step           int64
	down           []bool
	crashDone      bool
	mergeCrashDone bool
	st             Stats
}

// NewInjector returns an injector dealing plan's faults over p locales.
func NewInjector(plan Plan, p int) *Injector {
	return &Injector{plan: plan, p: p, down: make([]bool, p)}
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// advanceLocked consumes one step of the fault sequence, firing the planned
// crash when the counter reaches CrashStep.
func (in *Injector) advanceLocked() int64 {
	s := in.step
	in.step++
	in.st.Steps++
	if !in.crashDone && in.plan.CrashLocale >= 0 && in.plan.CrashLocale < in.p && s >= in.plan.CrashStep {
		in.down[in.plan.CrashLocale] = true
		in.crashDone = true
		in.st.Crashes++
	}
	return s
}

// unit derives a uniform value in [0, 1) from (seed, step, salt) with a
// splitmix64-style finalizer — counter-based, so the sequence is a pure
// function of the plan and the call order.
func unit(seed, step int64, salt uint64) float64 {
	z := uint64(seed) ^ (uint64(step)+1)*0x9E3779B97F4A7C15 ^ (salt+1)*0xD1B54A32D192ED03
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(uint64(1)<<53)
}

const (
	saltDrop uint64 = iota
	saltDelay
	saltStall
)

// Attempt draws the fault outcome of one collective transfer attempt between
// src and dst, advancing the deterministic sequence. A down endpoint returns
// ErrLocaleLost (as *LocaleLostError); otherwise the verdict carries the drop
// decision and any injected latency.
func (in *Injector) Attempt(src, dst int) (Verdict, error) {
	if in == nil {
		return Verdict{}, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.advanceLocked()
	for _, l := range [2]int{src, dst} {
		if l >= 0 && l < len(in.down) && in.down[l] {
			return Verdict{}, &LocaleLostError{Locale: l}
		}
	}
	var v Verdict
	if in.plan.DropProb > 0 && unit(in.plan.Seed, s, saltDrop) < in.plan.DropProb {
		v.Drop = true
		in.st.Drops++
	}
	if in.plan.DelayProb > 0 && unit(in.plan.Seed, s, saltDelay) < in.plan.DelayProb {
		v.ExtraNS += in.plan.DelayNS
		in.st.Delays++
	}
	if in.plan.StallProb > 0 && unit(in.plan.Seed, s, saltStall) < in.plan.StallProb {
		v.ExtraNS += in.plan.StallNS
		in.st.Stalls++
	}
	return v, nil
}

// PerturbTransfer implements the simulator's transfer hook (sim.Hook): every
// charged bulk or fine-grained transfer steps the fault sequence and absorbs
// injected delays/stalls into the modeled clock. Drops are not surfaced at
// this level — the conduit retransmits fine-grained traffic below the
// collective layer — so only the latency cost appears.
func (in *Injector) PerturbTransfer(loc int, bytes int64) float64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.advanceLocked()
	var extra float64
	if in.plan.DelayProb > 0 && unit(in.plan.Seed, s, saltDelay) < in.plan.DelayProb {
		extra += in.plan.DelayNS
		in.st.Delays++
	}
	if in.plan.StallProb > 0 && unit(in.plan.Seed, s, saltStall) < in.plan.StallProb {
		extra += in.plan.StallNS
		in.st.Stalls++
	}
	_ = loc
	_ = bytes
	return extra
}

// MergeAttempt draws the fault outcome of locale l starting to merge its
// epoch delta toward committed epoch target. A down locale fails immediately
// with ErrLocaleLost; the planned mid-merge crash (MergeCrashLocale at
// MergeCrashEpoch) fires here exactly once, marking the locale permanently
// down and surfacing the loss to the merge so it can abort before the epoch
// pointer is published. Does not advance the step counter: the crash is keyed
// to the epoch, not to the transfer sequence, so adding or removing merges
// never perturbs the probabilistic fault stream.
func (in *Injector) MergeAttempt(target int64, l int) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if l >= 0 && l < len(in.down) && in.down[l] {
		return &LocaleLostError{Locale: l}
	}
	if !in.mergeCrashDone && in.plan.MergeCrashEpoch > 0 && target == in.plan.MergeCrashEpoch &&
		l == in.plan.MergeCrashLocale && l >= 0 && l < in.p {
		in.down[l] = true
		in.mergeCrashDone = true
		in.st.Crashes++
		return &LocaleLostError{Locale: l}
	}
	return nil
}

// Down reports whether locale l is permanently lost.
func (in *Injector) Down(l int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return l >= 0 && l < len(in.down) && in.down[l]
}

// AnyDown returns the lowest-numbered lost locale, or -1 when all are alive.
func (in *Injector) AnyDown() int {
	if in == nil {
		return -1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for l, d := range in.down {
		if d {
			return l
		}
	}
	return -1
}

// Rebase resizes the injector to the surviving locale count after the
// runtime was rebuilt around a crash: down flags clear, while the step
// sequence and the probabilistic faults carry on over the new grid. A crash
// (step-counter or mid-merge) that already fired stays consumed — its done
// flag was set at fire time, so it can never re-fire after the rebase. A
// crash still pending remains armed, so a second loss can arrive while a
// replayed merge or a later collective is in flight (double degrade).
func (in *Injector) Rebase(p int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.p = p
	in.down = make([]bool, p)
}

// Stats returns a copy of the fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.st
}

// Step returns the number of transfer steps drawn so far.
func (in *Injector) Step() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.step
}
