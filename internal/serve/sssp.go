package serve

import (
	"sync"

	"repro/gb"
)

// The SSSP state store: per graph, the last distances computed from each
// source, so that a reply-cache miss on a later epoch starts Bellman–Ford from
// them instead of from infinity. Whether a state may seed a run is the
// library's rule (gb.IncrementalSSSP checks it against the snapshot's stamp:
// same source, an epoch not newer, and no delete or raise merged since); the
// store only keeps the states of one run of such epochs at a time, the way
// the reply cache keeps one epoch. It has a mutex of its own and never takes
// the graph mutex. A state's Dist is shared with the reply it answered, which
// is safe because nothing writes either: a warm start copies it.

// maxSSSPStateBytes bounds the distance bytes one graph's store holds. A
// constant, not a knob: the benchmark's read-write mix holds 64 sources of a
// 2 048-vertex graph, 1 MB.
const maxSSSPStateBytes = 64 << 20

type ssspStates struct {
	mu sync.Mutex
	// run is the Invalidations count every held state shares: the deletes
	// and raises merged before their epochs.
	run     uint64
	entries map[int]*gb.SSSPState[float64]
	bytes   int // 8 bytes per distance over entries
	max     int // maxSSSPStateBytes; tests shrink it
}

func newSSSPStates() *ssspStates {
	return &ssspStates{entries: make(map[int]*gb.SSSPState[float64]), max: maxSSSPStateBytes}
}

func stateBytes(st *gb.SSSPState[float64]) int { return 8 * len(st.Dist) }

// get returns the last state stored for source, or nil.
func (c *ssspStates) get(source int) *gb.SSSPState[float64] {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[source]
}

// put keeps st as its source's state unless the store already holds a state
// of that source from a later epoch. A state of a later run — a delete or a
// raise was merged since the held ones — empties the store first, since none
// of them can seed a run again; one of an earlier run is dropped, and so is a
// state over an eighth of the cap. When the cap would be passed, states go in
// map-iteration order (random replacement, as in the reply cache) until the
// new one fits.
func (c *ssspStates) put(st *gb.SSSPState[float64]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	size := stateBytes(st)
	switch run := st.Invalidations(); {
	case run < c.run || size > c.max/8:
		return
	case run > c.run:
		c.run, c.bytes = run, 0
		clear(c.entries)
	}
	if old, ok := c.entries[st.Source]; ok {
		if old.Epoch > st.Epoch {
			return
		}
		delete(c.entries, st.Source)
		c.bytes -= stateBytes(old)
	}
	for victim, old := range c.entries {
		if c.bytes+size <= c.max {
			break
		}
		delete(c.entries, victim)
		c.bytes -= stateBytes(old)
	}
	c.entries[st.Source] = st
	c.bytes += size
}

// stats returns how many states the store holds and their distance bytes.
func (c *ssspStates) stats() (states, bytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}
