package serve

import "sync"

// The reply cache: one answer per (snapshot, query). A committed epoch is
// immutable, so a fault-free query is a pure function of (graph, epoch, stale
// flag, op, source, effective PageRank parameters); the first request to ask
// it pays for the run and the encoder, and every later one gets the encoded
// body back — one map lookup and one Write. The values are bytes, not result
// vectors: a hit skips the encoder too, and nothing a caller is handed can be
// written through. One cache per graph, holding one epoch at a time; the
// lookup takes the cache's own mutex and reads the served epoch from an
// atomic word (graph.served), never the graph mutex, so a hit does not queue
// behind a flush or a derivation.

// maxReplyBytes bounds the body bytes one graph's cache holds. A constant,
// not a knob: the benchmark's read mix holds about 2 MB per run.
const maxReplyBytes = 64 << 20

// replyKey names one answer. source is zero for the whole-graph ops, and the
// PageRank fields are the effective parameters (pagerankParams), zero for
// every other op — so a request that spells the defaults out shares the entry
// of one that leaves them unset. Timeouts, budgets and the tenant are not in
// the key: they do not change the answer.
type replyKey struct {
	epoch        uint64
	stale        bool
	op           string
	source       int
	damping, tol float64
	maxIter      int
}

// cachedReply is a 200 body exactly as the miss wrote it — never mutated
// afterwards, so a hit writes it without a copy — and the modeled cost of the
// run that computed it, which a hit's budget is checked against.
type cachedReply struct {
	body      []byte
	modeledMS float64
}

// replyCounters are one cache's counters on /metrics, summed over graphs.
type replyCounters struct {
	hits, misses, evictions, duplicateMisses int64
}

type replyCache struct {
	mu      sync.Mutex
	epoch   uint64 // the one epoch the entries belong to
	entries map[replyKey]cachedReply
	bytes   int // sum of len(body) over entries
	max     int // maxReplyBytes; tests shrink it
	replyCounters
}

func newReplyCache() *replyCache {
	return &replyCache{entries: make(map[replyKey]cachedReply), max: maxReplyBytes}
}

// advance empties the cache when epoch is newer than its entries' — the epoch
// retiring is the moment the service recycles memory — and reports whether
// epoch is (now) the cache's. Callers hold c.mu.
func (c *replyCache) advance(epoch uint64) bool {
	if epoch > c.epoch {
		c.epoch, c.bytes = epoch, 0
		clear(c.entries)
	}
	return epoch == c.epoch
}

// get returns the stored reply for k. A reader pinned to an epoch the cache
// has left simply misses.
func (c *replyCache) get(k replyKey) (cachedReply, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := cachedReply{}, false
	if c.advance(k.epoch) {
		r, ok = c.entries[k]
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return r, ok
}

// put stores body under k. A run that outlived a flush (k.epoch older than
// the cache's) is dropped, and so is a body over an eighth of the cap. When
// the cap would be passed, entries go in map-iteration order — Go randomises
// it, which makes this random replacement — until the new one fits. A key
// somebody else stored while this run was under way keeps its first body and
// is counted: the number that would justify single-flight.
func (c *replyCache) put(k replyKey, body []byte, modeledMS float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.advance(k.epoch) || len(body) > c.max/8 {
		return
	}
	if _, dup := c.entries[k]; dup {
		c.duplicateMisses++
		return
	}
	for victim, r := range c.entries {
		if c.bytes+len(body) <= c.max {
			break
		}
		delete(c.entries, victim)
		c.bytes -= len(r.body)
		c.evictions++
	}
	c.entries[k] = cachedReply{body: body, modeledMS: modeledMS}
	c.bytes += len(body)
}

// stats snapshots the counters and the current size.
func (c *replyCache) stats() (n replyCounters, bytes, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replyCounters, c.bytes, len(c.entries)
}
