// Package health implements a deterministic, modeled-clock failure detector
// for the simulated distributed runtime: a heartbeat/suspicion state machine
// (Alive → Suspect → Dead) driven by the fault injector's crash state and
// timestamped on the simulator's modeled clock.
//
// The detector never charges the model — it is a pure observer, like
// internal/trace — so installing it does not perturb a single modeled
// nanosecond. What it adds is a reconstructed detection timeline: every
// locale is modeled as emitting a heartbeat each HeartbeatNS of modeled
// time, and each poll of an alive locale records the latest beat the
// survivors have seen. When a poll finds the injector holding a locale
// permanently down, the suspicion transition is timestamped at
//
//	min(lastBeat + SuspectAfterNS, pollTime)
//
// — back-dated to the missed-heartbeat timeout when the poll arrives late
// (the algorithm was busy computing while the timeout expired), or at the
// poll itself when a failing collective surfaced the loss before the timeout
// (early detection by connection error). Because the fault sequence and the
// modeled clock are both pure functions of the chaos seed, the same seed
// always yields the same event timeline — which is what the determinism
// tests pin down.
//
// Transitions are reported as trace spans (zero-duration, observe-only) when
// a tracer is attached, so a chaos run's span forest shows when each locale
// turned Suspect and Dead alongside the operations that paid for it.
package health

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// State is one locale's health as seen by the detector.
type State int

const (
	// Alive: heartbeats arriving on schedule.
	Alive State = iota
	// Suspect: SuspectAfterNS of modeled time elapsed since the last
	// heartbeat; the locale is presumed failing but not yet acted upon.
	Suspect
	// Dead: the failure was confirmed (recovery started on it).
	Dead
)

// String returns the state's lower-case name.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Event is one state transition on the modeled timeline.
type Event struct {
	Locale int     `json:"locale"`
	From   State   `json:"from"`
	To     State   `json:"to"`
	AtNS   float64 `json:"at_ns"` // modeled time of the transition
}

// Config sets the detector's modeled heartbeat discipline. Zero fields take
// the defaults of DefaultConfig.
type Config struct {
	// HeartbeatNS is the modeled heartbeat period per locale.
	HeartbeatNS float64
	// SuspectAfterNS is how long after the last heartbeat a locale turns
	// Suspect (i.e. the missed-heartbeat window).
	SuspectAfterNS float64
}

// DefaultConfig returns the stock discipline: 1ms heartbeats, suspicion
// after 3 missed beats.
func DefaultConfig() Config {
	return Config{HeartbeatNS: 1_000_000, SuspectAfterNS: 3_000_000}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.HeartbeatNS <= 0 {
		c.HeartbeatNS = def.HeartbeatNS
	}
	if c.SuspectAfterNS <= 0 {
		c.SuspectAfterNS = def.SuspectAfterNS
	}
	return c
}

// Detector tracks per-locale health states and their transition timeline.
// All methods are safe for concurrent use and safe on a nil receiver (a nil
// detector observes nothing and reports every locale Alive).
type Detector struct {
	cfg Config

	mu       sync.Mutex
	states   []State
	lastBeat []float64 // latest modeled heartbeat observed per locale
	events   []Event
	tr       *trace.Tracer
}

// New returns a detector over p locales. A zero Config means DefaultConfig.
func New(cfg Config, p int) *Detector {
	return &Detector{
		cfg:      cfg.withDefaults(),
		states:   make([]State, p),
		lastBeat: make([]float64, p),
	}
}

// Config returns the detector's (defaults-filled) configuration.
func (d *Detector) Config() Config {
	if d == nil {
		return Config{}
	}
	return d.cfg
}

// SetTracer attaches tr (nil detaches); transitions from then on are
// reported as zero-duration "HealthTransition" spans.
func (d *Detector) SetTracer(tr *trace.Tracer) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.tr = tr
	d.mu.Unlock()
}

// transitionLocked records a transition and emits its trace span. Callers
// hold d.mu; the span is emitted outside the lock by the caller via the
// returned closure (trace.Begin takes the tracer's own lock).
func (d *Detector) transitionLocked(l int, to State, atNS float64) func() {
	from := d.states[l]
	d.states[l] = to
	d.events = append(d.events, Event{Locale: l, From: from, To: to, AtNS: atNS})
	tr := d.tr
	return func() {
		tr.Event("HealthTransition",
			trace.T("locale", fmt.Sprintf("%d", l)),
			trace.T("from", from.String()),
			trace.T("to", to.String()))
	}
}

// Observe feeds the detector one poll of locale l at modeled time nowNS:
// down reports whether the fault injector holds the locale permanently
// crashed. Polling an alive locale records its latest heartbeat (the last
// HeartbeatNS multiple not after nowNS); the first down poll timestamps the
// Alive→Suspect transition at min(lastBeat + SuspectAfterNS, nowNS) — see
// the package comment for why both arms occur. Dead is terminal.
func (d *Detector) Observe(l int, down bool, nowNS float64) {
	if d == nil || l < 0 {
		return
	}
	var emit func()
	d.mu.Lock()
	if l < len(d.states) {
		switch {
		case !down:
			if beat := float64(int64(nowNS/d.cfg.HeartbeatNS)) * d.cfg.HeartbeatNS; beat > d.lastBeat[l] {
				d.lastBeat[l] = beat
			}
		case d.states[l] == Alive:
			suspectAt := d.lastBeat[l] + d.cfg.SuspectAfterNS
			if suspectAt > nowNS {
				suspectAt = nowNS
			}
			emit = d.transitionLocked(l, Suspect, suspectAt)
		}
	}
	d.mu.Unlock()
	if emit != nil {
		emit()
	}
}

// Confirm marks locale l Dead at modeled time nowNS — called when recovery
// actually begins on the loss. A locale confirmed without a prior Observe
// passes through Suspect implicitly (one Alive→Dead event is recorded).
func (d *Detector) Confirm(l int, nowNS float64) {
	if d == nil || l < 0 {
		return
	}
	var emit func()
	d.mu.Lock()
	if l < len(d.states) && d.states[l] != Dead {
		emit = d.transitionLocked(l, Dead, nowNS)
	}
	d.mu.Unlock()
	if emit != nil {
		emit()
	}
}

// States returns a copy of every locale's current state.
func (d *Detector) States() []State {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]State(nil), d.states...)
}

// Events returns a copy of the transition timeline in observation order.
func (d *Detector) Events() []Event {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Event(nil), d.events...)
}

// SuspectedAt returns the modeled time locale l turned Suspect, or -1 if it
// never did (Confirm without Observe records the Dead time only).
func (d *Detector) SuspectedAt(l int) float64 {
	if d == nil {
		return -1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.events {
		if e.Locale == l && e.To == Suspect {
			return e.AtNS
		}
	}
	return -1
}
