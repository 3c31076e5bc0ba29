// Package sim maintains simulated per-locale clocks and charges operation
// costs against the machine model. Operations execute for real on real data;
// sim only decides how long that execution would have taken on the modeled
// machine (see internal/machine).
//
// The clock discipline is bulk-synchronous: named phases open with an
// implicit barrier, each locale advances its own clock while charging work,
// and EndPhase closes with a barrier; the phase duration is the makespan
// (max-over-locales) of the charged work. This matches the structure of the
// paper's distributed operations (gather / local multiply / scatter) and
// makes the per-component breakdowns of Figs 7–9 well defined.
package sim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/machine"
)

// Kernel describes one data-parallel computation for cost charging.
type Kernel struct {
	// Name is a short label used only for debugging.
	Name string
	// Items is the number of loop iterations actually executed.
	Items int64
	// CPUPerItem is the per-iteration instruction cost, ns.
	CPUPerItem float64
	// BytesPerItem is the memory traffic per iteration, bytes (streamed
	// against the roofline bandwidth).
	BytesPerItem float64
	// AtomicsPerItem is the number of contended atomic RMW operations per
	// iteration; atomic work is serialized and does not parallelize.
	AtomicsPerItem float64
	// SerialNS is a fixed non-parallelizable cost added once, ns.
	SerialNS float64
}

// Phase is one recorded bulk-synchronous phase.
type Phase struct {
	Name string  `json:"name"`
	NS   float64 `json:"ns"` // makespan of the phase, ns
}

// Counters aggregates communication traffic and charged compute work.
type Counters struct {
	Messages  int64
	Bytes     int64
	FineOps   int64 // fine-grained (per-element) remote operations
	BulkOps   int64 // bulk transfers
	Barriers  int64
	Coforalls int64
	Retries   int64 // collective transfer retries (fault recovery)
	Items     int64 // kernel items charged by Compute (edge visits, elements scanned)
}

// LocaleCounters is the per-locale slice of the traffic counters: the
// messages, bytes and retries attributed to one locale (the destination of a
// charged transfer). internal/trace snapshots these to give every span a
// per-locale breakdown.
type LocaleCounters struct {
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
	Retries  int64 `json:"retries,omitempty"`
}

// Hook is consulted on every charged transfer (Bulk and FineGrained); the
// returned extra time is added to the charged locale's clock. internal/fault
// implements it to inject modeled delays and stalls and to advance its
// deterministic fault sequence.
type Hook interface {
	PerturbTransfer(loc int, bytes int64) float64
}

// Sim is the simulated machine state: one clock per locale plus phase and
// traffic records. All methods are safe for concurrent use.
type Sim struct {
	M machine.Machine

	mu      sync.Mutex
	clocks  []float64
	alias   []int // per-locale clock redirect; nil = identity
	phases  []Phase
	started bool
	pStart  float64 // max clock when the current phase opened
	pName   string
	cnt     Counters
	locCnt  []LocaleCounters
	hook    Hook
}

// SetHook installs h as the transfer hook (nil removes it).
func (s *Sim) SetHook(h Hook) {
	s.mu.Lock()
	s.hook = h
	s.mu.Unlock()
}

// getHook returns the installed hook under the lock.
func (s *Sim) getHook() Hook {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hook
}

// NoteRetries records n collective transfer retries in the traffic counters,
// attributed to locale loc (the destination of the retried transfer).
func (s *Sim) NoteRetries(loc int, n int64) {
	s.mu.Lock()
	s.cnt.Retries += n
	if loc >= 0 && loc < len(s.locCnt) {
		s.locCnt[s.idx(loc)].Retries += n
	}
	s.mu.Unlock()
}

// Alias redirects every future charge against locale dead onto locale host's
// clock — the cost-model half of adopting a crashed locale's work onto a
// survivor. The logical locale count (and thus all data layouts) is
// unchanged; the host simply pays for two locales' work, which is what makes
// degraded execution slower. Aliases compose: if host is itself aliased, the
// redirect follows to its live target.
func (s *Sim) Alias(dead, host int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.alias == nil {
		s.alias = make([]int, len(s.clocks))
		for i := range s.alias {
			s.alias[i] = i
		}
	}
	// Re-point every locale currently charged to dead's clock (dead itself
	// plus any earlier adoptee it was hosting), so chained losses keep all
	// charges on a live clock.
	target := s.alias[host]
	old := s.alias[dead]
	for i := range s.alias {
		if s.alias[i] == old {
			s.alias[i] = target
			s.clocks[i] = s.clocks[target]
		}
	}
}

// idx resolves a locale id through the alias table; callers must hold mu.
func (s *Sim) idx(l int) int {
	if s.alias == nil {
		return l
	}
	return s.alias[l]
}

// New returns a simulator for p locales on machine m.
func New(m machine.Machine, p int) *Sim {
	return &Sim{M: m, clocks: make([]float64, p), locCnt: make([]LocaleCounters, p)}
}

// Clone returns an independent copy of the simulator state: clocks, aliases,
// phases and counters are deep-copied so charges against the clone never show
// on the original. The transfer hook pointer is shared (a fault injector stays
// installed on both until one side replaces it with SetHook).
func (s *Sim) Clone() *Sim {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &Sim{
		M:       s.M,
		clocks:  append([]float64(nil), s.clocks...),
		phases:  append([]Phase(nil), s.phases...),
		started: s.started,
		pStart:  s.pStart,
		pName:   s.pName,
		cnt:     s.cnt,
		locCnt:  append([]LocaleCounters(nil), s.locCnt...),
		hook:    s.hook,
	}
	if s.alias != nil {
		c.alias = append([]int(nil), s.alias...)
	}
	return c
}

// P returns the number of locales.
func (s *Sim) P() int { return len(s.clocks) }

// Reset zeroes all clocks, phases and counters.
func (s *Sim) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.clocks {
		s.clocks[i] = 0
	}
	s.alias = nil
	s.phases = nil
	s.started = false
	s.cnt = Counters{}
	for i := range s.locCnt {
		s.locCnt[i] = LocaleCounters{}
	}
}

// ComputeTime returns the modeled wall time of executing k with p threads on
// one locale: task-spawn overhead, a compute/memory roofline over the
// parallelizable work, and a serialized atomic term.
func (s *Sim) ComputeTime(threads int, k Kernel) float64 {
	m := s.M
	if threads < 1 {
		threads = 1
	}
	pEff := threads
	if pEff > m.CoresPerNode {
		pEff = m.CoresPerNode
	}
	spawn := 0.0
	if threads > 1 {
		spawn = m.TaskSpawn * float64(threads)
	}
	cpu := float64(k.Items) * k.CPUPerItem / float64(pEff)
	mem := 0.0
	if k.BytesPerItem > 0 {
		mem = float64(k.Items) * k.BytesPerItem / m.EffectiveMemBW(pEff)
	}
	body := math.Max(cpu, mem)
	atomics := float64(k.Items) * k.AtomicsPerItem * m.AtomicOp
	return spawn + body + atomics + k.SerialNS
}

// Compute charges kernel k executed with the given thread count to locale
// loc's clock and returns the charged time.
func (s *Sim) Compute(loc, threads int, k Kernel) float64 {
	t := s.ComputeTime(threads, k)
	s.mu.Lock()
	s.clocks[s.idx(loc)] += t
	s.cnt.Items += k.Items
	s.mu.Unlock()
	return t
}

// Advance adds a fixed time to locale loc's clock.
func (s *Sim) Advance(loc int, ns float64) {
	s.mu.Lock()
	s.clocks[s.idx(loc)] += ns
	s.mu.Unlock()
}

// RemoteOpts configures fine-grained remote traffic charging.
type RemoteOpts struct {
	// Msgs is the number of fine-grained messages (one per element).
	Msgs int64
	// BytesPerMsg is the payload of each message.
	BytesPerMsg float64
	// Overlap is the number of outstanding operations (concurrent tasks
	// issuing blocking accesses); <=0 uses the machine default.
	Overlap float64
	// Contenders is the number of locales simultaneously pulling from the
	// same sources (incast); latency scales by 1+IncastFactor*(Contenders-1).
	Contenders int
	// IntraNode marks traffic between locales placed on the same node;
	// it uses IntraNodeLatency scaled by the oversubscription factor.
	IntraNode bool
	// ColocatedLocales is the number of locales sharing the node (>=1);
	// only used when IntraNode is set.
	ColocatedLocales int
}

// FineGrainedTime returns the modeled time of the described fine-grained
// remote traffic.
func (s *Sim) FineGrainedTime(o RemoteOpts) float64 {
	m := s.M
	lat := m.NetLatency
	if o.IntraNode {
		lat = m.IntraNodeLatency
		l := o.ColocatedLocales
		if l < 1 {
			l = 1
		}
		lat *= 1 + m.OversubFactor*float64(l-1)
	} else if o.Contenders > 1 {
		lat *= 1 + m.IncastFactor*float64(o.Contenders-1)
	}
	overlap := o.Overlap
	if overlap <= 0 {
		overlap = m.FineGrainOverlap
	}
	latTime := float64(o.Msgs) * lat / overlap
	bwTime := float64(o.Msgs) * o.BytesPerMsg / m.NetBandwidth
	return latTime + bwTime
}

// FineGrained charges the described traffic to locale loc and returns the
// charged time.
func (s *Sim) FineGrained(loc int, o RemoteOpts) float64 {
	t := s.FineGrainedTime(o)
	if h := s.getHook(); h != nil {
		t += h.PerturbTransfer(loc, int64(float64(o.Msgs)*o.BytesPerMsg))
	}
	s.mu.Lock()
	s.clocks[s.idx(loc)] += t
	s.cnt.Messages += o.Msgs
	s.cnt.Bytes += int64(float64(o.Msgs) * o.BytesPerMsg)
	s.cnt.FineOps += o.Msgs
	if loc >= 0 && loc < len(s.locCnt) {
		lc := &s.locCnt[s.idx(loc)]
		lc.Messages += o.Msgs
		lc.Bytes += int64(float64(o.Msgs) * o.BytesPerMsg)
	}
	s.mu.Unlock()
	return t
}

// BulkTime returns the modeled time of one bulk transfer of n bytes.
func (s *Sim) BulkTime(bytes int64, intraNode bool) float64 {
	lat := s.M.NetLatency
	if intraNode {
		lat = s.M.IntraNodeLatency
	}
	return lat + float64(bytes)/s.M.NetBandwidth
}

// Bulk charges one bulk transfer of n bytes to locale loc.
func (s *Sim) Bulk(loc int, bytes int64, intraNode bool) float64 {
	t := s.BulkTime(bytes, intraNode)
	if h := s.getHook(); h != nil {
		t += h.PerturbTransfer(loc, bytes)
	}
	s.mu.Lock()
	s.clocks[s.idx(loc)] += t
	s.cnt.Messages++
	s.cnt.Bytes += bytes
	s.cnt.BulkOps++
	if loc >= 0 && loc < len(s.locCnt) {
		lc := &s.locCnt[s.idx(loc)]
		lc.Messages++
		lc.Bytes += bytes
	}
	s.mu.Unlock()
	return t
}

// Barrier synchronizes every locale clock to the maximum plus the barrier
// cost (log2 P hops).
func (s *Sim) Barrier() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.barrierLocked()
}

func (s *Sim) barrierLocked() {
	maxC := 0.0
	for _, c := range s.clocks {
		if c > maxC {
			maxC = c
		}
	}
	cost := 0.0
	if len(s.clocks) > 1 {
		cost = s.M.BarrierLatency * math.Log2(float64(len(s.clocks)))
	}
	for i := range s.clocks {
		s.clocks[i] = maxC + cost
	}
	s.cnt.Barriers++
}

// CoforallSpawn charges launching one task on each locale from locale 0
// (a coforall + on over the whole machine): a barrier followed by a
// tree-structured fan-out of remote task launches (depth log2 P). With a
// single locale only the local task spawn is paid.
func (s *Sim) CoforallSpawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := len(s.clocks)
	if p == 1 {
		s.clocks[0] += s.M.TaskSpawn
		s.cnt.Coforalls++
		return
	}
	s.barrierLocked()
	depth := math.Ceil(math.Log2(float64(p)))
	for i := range s.clocks {
		s.clocks[i] += s.M.RemoteTaskSpawn * depth
	}
	s.cnt.Coforalls++
}

// BeginPhase opens a named bulk-synchronous phase (with an implicit barrier).
func (s *Sim) BeginPhase(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		s.endPhaseLocked()
	}
	s.barrierLocked()
	s.pStart = s.clocks[0]
	s.pName = name
	s.started = true
}

// EndPhase closes the current phase (with a barrier) and records its
// makespan.
func (s *Sim) EndPhase() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		s.endPhaseLocked()
	}
}

func (s *Sim) endPhaseLocked() {
	s.barrierLocked()
	s.phases = append(s.phases, Phase{Name: s.pName, NS: s.clocks[0] - s.pStart})
	s.started = false
}

// Phases returns the recorded phases (closing any open phase first).
func (s *Sim) Phases() []Phase {
	s.EndPhase()
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Phase(nil), s.phases...)
}

// PhaseCount returns the number of phases recorded so far. Unlike Phases it
// does not close an open phase, so tracers can snapshot it mid-operation.
func (s *Sim) PhaseCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.phases)
}

// PhasesSince returns a copy of the phases recorded at index i and later.
// Unlike Phases it does not close an open phase; an in-flight phase is simply
// not included.
func (s *Sim) PhasesSince(i int) []Phase {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i >= len(s.phases) {
		return nil
	}
	return append([]Phase(nil), s.phases[i:]...)
}

// LocaleTraffic returns a copy of the per-locale traffic counters.
func (s *Sim) LocaleTraffic() []LocaleCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]LocaleCounters(nil), s.locCnt...)
}

// Clock returns locale l's modeled clock, ns, resolved through the alias
// table (a dead locale reads its adopter's clock).
func (s *Sim) Clock(l int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clocks[s.idx(l)]
}

// Elapsed returns the current makespan (maximum locale clock), ns.
func (s *Sim) Elapsed() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	maxC := 0.0
	for _, c := range s.clocks {
		if c > maxC {
			maxC = c
		}
	}
	return maxC
}

// ElapsedSeconds returns the current makespan in seconds.
func (s *Sim) ElapsedSeconds() float64 { return s.Elapsed() / 1e9 }

// Traffic returns a copy of the communication counters.
func (s *Sim) Traffic() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cnt
}

// String summarizes the simulator state.
func (s *Sim) String() string {
	return fmt.Sprintf("sim{P=%d elapsed=%.3fms msgs=%d bytes=%d}",
		s.P(), s.Elapsed()/1e6, s.Traffic().Messages, s.Traffic().Bytes)
}
