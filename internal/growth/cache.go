package growth

import (
	"slices"

	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// projCache is one worker's private LRU of prefix projections, byte-capped
// by the worker's share of Config.Budget. It only affects how fast a
// projection is obtained, never which projection: a pattern's projection is
// always the same left-to-right extension chain over the same sample,
// whether the chain starts from a cached prefix or from a fresh 1-symbol
// build, so cache hits and evictions are invisible to every recorded float.
// No locks — each worker owns one.
//
// Projections the worker no longer uses are recycled: an evicted entry and
// a transient projection (one the cap denied) join a free list of at most
// maxFree, and the next build or extension writes into its arrays instead
// of allocating. A projection is handed out again only once nothing reads
// it. The one reader that outlives a cache entry is processNode, whose
// node's projection stays in use across the subsAlive → resolve →
// processNode recursion, and that recursion can evict it. So processNode
// pins its projection: an evicted pinned projection is not freed, and the
// node frees it when it is done.
type projCache struct {
	e       *engine
	cap     int64 // byte cap; negative = unlimited
	bytes   int64
	entries map[string]*cacheEnt
	head    *cacheEnt // most recently used
	tail    *cacheEnt
	prof    match.ProfileScratch // per-worker profile buffers
	free    []*match.Projection  // retired projections, at most maxFree
	pins    []*match.Projection  // the projections of the nodes being processed, innermost last
}

// maxFree bounds a worker's free list. A node takes one projection for
// its extension and its insertion evicts about as many, so a short list
// keeps up; what it cannot hold is left to the collector.
const maxFree = 4

type cacheEnt struct {
	key        string
	pr         *match.Projection
	prev, next *cacheEnt
}

func newProjCache(e *engine, cap int64) *projCache {
	return &projCache{e: e, cap: cap, entries: make(map[string]*cacheEnt)}
}

// proj returns the projection for p. It extends the longest cached prefix
// of p (falling back to a fresh build of p's first symbol), caching every
// intermediate prefix so sibling and child nodes pick up the chain one
// extension from the end.
func (pc *projCache) proj(p pattern.Pattern) (*match.Projection, error) {
	// Concrete symbol positions: p's prefix patterns end at each of these.
	var idx [16]int
	pos := idx[:0]
	for i, s := range p {
		if !s.IsEternal() {
			pos = append(pos, i)
		}
	}
	// Longest cached prefix, the full pattern included.
	t := len(pos) - 1
	var cur *match.Projection
	for ; t >= 0; t-- {
		if ce := pc.get(p[:pos[t]+1].Key()); ce != nil {
			cur = ce
			break
		}
	}
	cached := true // whether cur is in the cache; a denied prefix is freed once extended
	for j := t + 1; j < len(pos); j++ {
		prefix := p[:pos[j]+1]
		if cur == nil {
			built, err := pc.e.pj.BuildInto(pc.take(), prefix)
			if err != nil {
				return nil, err
			}
			cur = built
			pc.e.cfg.Metrics.Add(telemetry.GrowthProjBuilt, 1)
		} else {
			next := cur.ExtendInto(pc.take(), pos[j]+1, p[pos[j]])
			if !cached {
				pc.release(cur)
			}
			cur = next
			pc.e.cfg.Metrics.Add(telemetry.GrowthProjReused, 1)
		}
		cached = pc.put(prefix.Key(), cur)
	}
	return cur, nil
}

// pin marks pr, the projection of the node the worker starts processing,
// as in use.
func (pc *projCache) pin(pr *match.Projection) {
	pc.pins = append(pc.pins, pr)
}

// unpin ends the innermost pin, that of the node keyed key, and frees its
// projection unless the cache still holds it: the cap denied it, or the
// node's recursion evicted it.
func (pc *projCache) unpin(key string) {
	pr := pc.pins[len(pc.pins)-1]
	pc.pins = pc.pins[:len(pc.pins)-1]
	if ce, ok := pc.entries[key]; !ok || ce.pr != pr {
		pc.release(pr)
	}
}

// take returns a retired projection to build into, or nil.
func (pc *projCache) take() *match.Projection {
	n := len(pc.free)
	if n == 0 {
		return nil
	}
	pr := pc.free[n-1]
	pc.free = pc.free[:n-1]
	return pr
}

// release frees pr, which nothing reads any more, into the free list.
func (pc *projCache) release(pr *match.Projection) {
	if len(pc.free) < maxFree {
		pc.free = append(pc.free, pr)
	}
}

// get returns the cached projection for key, promoting it to most recently
// used, or nil.
func (pc *projCache) get(key string) *match.Projection {
	ce, ok := pc.entries[key]
	if !ok {
		return nil
	}
	pc.touch(ce)
	return ce.pr
}

// put caches pr under key, evicting least-recently-used entries until it
// fits, and reports whether pr is cached. A projection larger than the whole
// cap is not cached (counted as denied) — it still served its caller; the
// next visit rebuilds it.
func (pc *projCache) put(key string, pr *match.Projection) bool {
	if _, ok := pc.entries[key]; ok {
		return false
	}
	b := pr.Bytes()
	if pc.cap >= 0 && b > pc.cap {
		pc.e.cfg.Metrics.Add(telemetry.GrowthDenied, 1)
		return false
	}
	if pc.cap >= 0 {
		for pc.bytes+b > pc.cap && pc.tail != nil {
			pc.evict(pc.tail)
		}
	}
	ce := &cacheEnt{key: key, pr: pr}
	pc.entries[key] = ce
	ce.next = pc.head
	if pc.head != nil {
		pc.head.prev = ce
	}
	pc.head = ce
	if pc.tail == nil {
		pc.tail = ce
	}
	pc.bytes += b
	pc.e.cacheGrew(b)
	return true
}

func (pc *projCache) touch(ce *cacheEnt) {
	if pc.head == ce {
		return
	}
	if ce.prev != nil {
		ce.prev.next = ce.next
	}
	if ce.next != nil {
		ce.next.prev = ce.prev
	}
	if pc.tail == ce {
		pc.tail = ce.prev
	}
	ce.prev = nil
	ce.next = pc.head
	if pc.head != nil {
		pc.head.prev = ce
	}
	pc.head = ce
	if pc.tail == nil {
		pc.tail = ce
	}
}

func (pc *projCache) evict(ce *cacheEnt) {
	delete(pc.entries, ce.key)
	if ce.prev != nil {
		ce.prev.next = ce.next
	} else {
		pc.head = ce.next
	}
	if ce.next != nil {
		ce.next.prev = ce.prev
	} else {
		pc.tail = ce.prev
	}
	b := ce.pr.Bytes()
	pc.bytes -= b
	pc.e.cached.Add(-b)
	if slices.Contains(pc.pins, ce.pr) {
		pc.e.pinnedEvictions.Add(1) // its node frees it
		return
	}
	pc.release(ce.pr)
}

// cacheGrew adds b bytes to the engine-wide cached total and raises its
// high-water mark — the figure Config.Budget bounds.
func (e *engine) cacheGrew(b int64) {
	bytes := e.cached.Add(b)
	for {
		cur := e.peak.Load()
		if bytes <= cur || e.peak.CompareAndSwap(cur, bytes) {
			return
		}
	}
}
