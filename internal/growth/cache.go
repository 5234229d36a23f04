package growth

import (
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
type projCache struct {
	e       *engine
	cap     int64 // byte cap; negative = unlimited
	bytes   int64
	entries map[string]*cacheEnt
	head    *cacheEnt // most recently used
	tail    *cacheEnt
	prof    match.ProfileScratch // per-worker profile buffers
}

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
	for j := t + 1; j < len(pos); j++ {
		prefix := p[:pos[j]+1]
		if cur == nil {
			built, err := pc.e.pj.Build(prefix)
			if err != nil {
				return nil, err
			}
			cur = built
			pc.e.cfg.Metrics.Add(telemetry.GrowthProjBuilt, 1)
		} else {
			cur = cur.Extend(pos[j]+1, p[pos[j]])
			pc.e.cfg.Metrics.Add(telemetry.GrowthProjReused, 1)
		}
		pc.put(prefix.Key(), cur)
	}
	return cur, nil
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
// fits. A projection larger than the whole cap is not cached (counted as
// denied) — it still served its caller; the next visit rebuilds it.
func (pc *projCache) put(key string, pr *match.Projection) {
	if _, ok := pc.entries[key]; ok {
		return
	}
	b := pr.Bytes()
	if pc.cap >= 0 && b > pc.cap {
		pc.e.cfg.Metrics.Add(telemetry.GrowthDenied, 1)
		return
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
