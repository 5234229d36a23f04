// The level-wise Phase 2 kernel (Algorithm 4.2's hot spot). The level-wise
// engine only ever scores right-extensions Extend(parent, gap, d) of
// patterns it scored one level earlier, yet valuing each candidate from
// scratch re-walks the whole pattern against every window of every sample
// sequence at every level — O(|S|·l) per pattern per sequence, summing to
// O(L²) pattern-position work over L levels. The kernel instead keeps, per
// generating parent, the parent's Projection (projector.go), so scoring a
// child costs one matrix-row lookup and one multiply per surviving window
// and the whole lattice costs O(L) pattern-position work.
//
// The cache is a lazy spine: a level's candidates are valued without storing
// anything, and only when the NEXT level references a pattern as a parent is
// its projection materialized — extended in O(1) per window from its own
// parent's projection, which is still alive (a referenced parent was a
// candidate one level earlier, so its parent was referenced then). Since
// typically only a small fraction of candidates turn out frequent enough to
// generate children, the spine is an order of magnitude smaller than caching
// every candidate would be. A parent whose own parent has no projection
// (first levels, budget denials, orphans) is built from scratch in O(l) per
// window and the lattice heals from there.
//
// Every child of the same (parent, total length) pair is valued by one
// Projection.ValueKids walk shared by all siblings; parentless candidates
// and children of budget-denied parents go through Projector.Value. Both
// follow the projector's float discipline (fixed sample shards, ascending
// merge), so every value is bit-identical to Projector.Value's for the same
// pattern whatever the path, worker count or budget, and within float64 sum
// reassociation of the naive sample valuer's.
package match

import (
	"sync"
	"sync/atomic"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// DefaultCacheBudget bounds the prefix cache when IncrementalOptions.Budget
// is zero: 256 MiB of window state, far above what the paper-scale workloads
// need but a hard wall against dense-matrix blowup.
const DefaultCacheBudget int64 = 256 << 20

// ShardSize is the number of sample sequences per shard. Shard boundaries
// are a function of the sample alone — never of the worker count — so the
// shard-order merge makes results independent of parallelism.
const ShardSize = 32

// ShardMean forms a sample match from per-sequence matches the way the
// Phase 2 kernel does: summed per ShardSize-sequence shard in
// sequence order, shard sums merged in ascending shard order, divided by
// len(matches). Given each sequence's Compiled.Match it returns
// Projector.Value's float for the pattern bit for bit (0 for no matches).
func ShardMean(matches []float64) float64 {
	total := 0.0
	for k := 0; k*ShardSize < len(matches); k++ {
		total += ShardSum(matches, k)
	}
	if n := len(matches); n > 0 {
		total /= float64(n)
	}
	return total
}

// ShardSum returns shard k's share of ShardMean(matches): the sum of
// matches[k*ShardSize : min((k+1)*ShardSize, len(matches))], from zero in
// sequence order.
func ShardSum(matches []float64, k int) float64 {
	part := 0.0
	for _, v := range matches[k*ShardSize : min((k+1)*ShardSize, len(matches))] {
		part += v
	}
	return part
}

// MergeShards returns ShardMean of n matches from their shard sums
// (ShardSum for every shard, in ascending order): the sums are added in
// that order and the total divided by n, so the bits are ShardMean's.
func MergeShards(sums []float64, n int) float64 {
	total := 0.0
	for _, part := range sums {
		total += part
	}
	if n > 0 {
		total /= float64(n)
	}
	return total
}

// entryOverhead approximates the fixed per-entry bookkeeping charged against
// the budget (struct, slice headers, map slot).
const entryOverhead = 96

// IncrementalOptions tunes the kernel; the zero value is a sequential kernel
// with the default budget and shard size.
type IncrementalOptions struct {
	// Workers is the number of goroutines building and valuing a level
	// (<= 1: sequential).
	Workers int
	// Budget bounds the bytes of cached projections, counting both the
	// previous level's spine and the one under construction. 0 selects
	// DefaultCacheBudget; negative means unlimited. Admission is decided
	// up front from a per-parent size bound, so the kernel never holds more
	// than the budget; children of parents denied admission are valued from
	// scratch — the budget trades speed for memory, never correctness.
	Budget int64
	// ShardSize overrides the sequences-per-shard split (<= 0: default 32).
	// Changing it reassociates the float64 sum merge, so it is fixed for a
	// kernel's lifetime and exposed mainly for tests.
	ShardSize int
	// Lend, when non-nil, is asked before each parallel section for up to
	// want goroutines beyond Workers; the section runs on Workers + got and
	// calls giveBack when it ends. Values do not depend on the count.
	Lend func(want int) (got int, giveBack func())
}

// LevelStats reports one ValueLevel call.
type LevelStats struct {
	// Extended and Scratch split the level's pattern evaluations by path:
	// valued through a parent's projection vs per-pattern compiled matching.
	Extended, Scratch int64
	// Windows is the number of spine windows cached for the next level;
	// Bytes the spine memory charged when the level closed.
	Windows, Bytes int64
	// Evicted counts parents denied a projection by the memory budget;
	// Fallback reports that the budget forced at least one denial.
	Evicted  int64
	Fallback bool
}

// IncrementalStats accumulates LevelStats over a kernel's lifetime.
type IncrementalStats struct {
	Extended, Scratch, Windows, Evicted, Fallbacks int64
	// PeakBytes is the high-water mark of cache memory, counting the closing
	// and the in-construction spine together.
	PeakBytes int64
}

// Incremental is the level-wise kernel. Create with NewIncremental, feed it
// successive lattice levels with ValueLevel, and Release it when mining
// ends. It is not safe for concurrent ValueLevel calls (the engine is
// level-serial); the parallelism is internal.
type Incremental struct {
	pj        *Projector
	workers   int
	lend      func(want int) (got int, giveBack func())
	budget    int64
	prev      map[string]*Projection // the previous level's spine, by parent key
	prevBytes int64
	// free holds retired projections. Once a level's builds are done, the
	// previous spine can no longer be a source, so its projections join free
	// and the next level's builds write into their arrays instead of
	// allocating (and later collecting) a level's worth of memory.
	free  []*Projection
	stats IncrementalStats
}

// NewIncremental builds a kernel over a fixed in-memory sample.
func NewIncremental(c compat.Source, sample [][]pattern.Symbol, o IncrementalOptions) *Incremental {
	budget := o.Budget
	if budget == 0 {
		budget = DefaultCacheBudget
	}
	return &Incremental{
		pj:      NewProjector(c, sample, o.ShardSize),
		workers: max(o.Workers, 1),
		lend:    o.Lend,
		budget:  budget,
	}
}

// Stats returns the cumulative kernel statistics.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Release drops the cache. The kernel stays usable — the next ValueLevel
// simply finds no parents — but callers should treat it as finished.
func (inc *Incremental) Release() {
	inc.prev, inc.prevBytes, inc.free = nil, 0, nil
}

// spineBuild is one parent the level references: its projection is extended
// from src, the previous spine's projection of its own parent, or built from
// scratch when src is nil.
type spineBuild struct {
	key    string
	parent pattern.Pattern
	src    *Projection
	pr     *Projection
}

// group collects the candidates extending one (parent, total length) pair:
// one ValueKids walk of the parent's projection values all of them.
type group struct {
	b    *spineBuild
	qLen int
	kids []int
	ds   []pattern.Symbol
}

// ValueLevel scores one lattice level and rotates the spine: projections are
// built for the parents this level references (extended from the previous
// spine, or from scratch), the candidates are valued against them without
// storing anything, and the previous spine is retired. The returned values
// equal Projector.Value's for every candidate; see the package comment for
// the exact determinism guarantees.
func (inc *Incremental) ValueLevel(ps []pattern.Pattern) ([]float64, LevelStats, error) {
	out := make([]float64, len(ps))
	var ls LevelStats

	// Serial setup: resolve each candidate's generating parent (last symbol
	// dropped, trailing eternals trimmed), admit parents against the budget
	// in candidate order, and group the admitted parents' children.
	// Admission reads only lengths and the previous level's charge, so the
	// extended/scratch split never depends on scheduling.
	builds := make(map[string]*spineBuild)
	var order []*spineBuild
	var groups []*group
	type groupKey struct {
		parent string
		qLen   int
	}
	groupIdx := make(map[groupKey]*group)
	var direct []int
	spineBound := inc.prevBytes
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, ls, err
		}
		parent := pattern.Trim(p[: len(p)-1 : len(p)-1])
		if parent == nil {
			direct = append(direct, i)
			ls.Scratch++
			continue
		}
		key := parent.Key()
		b, seen := builds[key]
		if !seen {
			if bound := inc.pj.WindowBytesBound(len(parent)); inc.budget >= 0 && spineBound+bound > inc.budget {
				ls.Evicted++
				ls.Fallback = true
			} else {
				spineBound += bound
				b = &spineBuild{key: key, parent: parent}
				if g := pattern.Trim(parent[: len(parent)-1 : len(parent)-1]); g != nil {
					b.src = inc.prev[g.Key()]
				}
				order = append(order, b)
			}
			builds[key] = b
		}
		if b == nil {
			direct = append(direct, i)
			ls.Scratch++
			continue
		}
		gk := groupKey{key, len(p)}
		g := groupIdx[gk]
		if g == nil {
			g = &group{b: b, qLen: len(p)}
			groupIdx[gk] = g
			groups = append(groups, g)
		}
		g.kids = append(g.kids, i)
		g.ds = append(g.ds, p[len(p)-1])
		ls.Extended++
	}

	// Parallel builds. Each writes into a retired projection when one is
	// free; the previous spine is retired only after every build is done,
	// since it holds the sources being extended.
	var mu sync.Mutex
	errs := make([]error, max(len(order), len(groups)+len(direct)))
	inc.parallel(len(order), func(j int) {
		b := order[j]
		var dst *Projection
		mu.Lock()
		if n := len(inc.free); n > 0 {
			dst, inc.free = inc.free[n-1], inc.free[:n-1]
		}
		mu.Unlock()
		if b.src != nil {
			b.pr = b.src.ExtendInto(dst, len(b.parent), b.parent[len(b.parent)-1])
		} else {
			b.pr, errs[j] = inc.pj.BuildInto(dst, b.parent)
		}
	})
	if err := firstError(errs); err != nil {
		return nil, ls, err
	}
	for _, pr := range inc.prev {
		inc.free = append(inc.free, pr)
	}

	// Parallel valuation: sibling groups first, then the scratch candidates.
	// Every value lands in its own out slot.
	inc.parallel(len(groups)+len(direct), func(j int) {
		if j < len(groups) {
			g := groups[j]
			for k, v := range g.b.pr.ValueKids(g.qLen, g.ds) {
				out[g.kids[k]] = v
			}
			return
		}
		i := direct[j-len(groups)]
		out[i], errs[j] = inc.pj.Value(ps[i])
	})
	if err := firstError(errs); err != nil {
		return nil, ls, err
	}

	// Rotate: the just-built spine serves the next level.
	cur := make(map[string]*Projection, len(order))
	var bytes int64
	for _, b := range order {
		cur[b.key] = b.pr
		ls.Windows += b.pr.windows()
		bytes += b.pr.Bytes() + entryOverhead
	}
	peak := inc.prevBytes + bytes
	inc.prev, inc.prevBytes = cur, bytes
	ls.Bytes = bytes

	inc.stats.Extended += ls.Extended
	inc.stats.Scratch += ls.Scratch
	inc.stats.Windows += ls.Windows
	inc.stats.Evicted += ls.Evicted
	if ls.Fallback {
		inc.stats.Fallbacks++
	}
	if peak > inc.stats.PeakBytes {
		inc.stats.PeakBytes = peak
	}
	return out, ls, nil
}

// firstError returns the first non-nil error in errs.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// parallel runs f(0..n-1) on up to inc.workers goroutines, plus as many as
// the lend hook grants it, up to n in all, for this call.
func (inc *Incremental) parallel(n int, f func(int)) {
	workers := min(inc.workers, n)
	if inc.lend != nil && n > inc.workers {
		got, giveBack := inc.lend(n - inc.workers)
		defer giveBack()
		workers += got
	}
	if workers <= 1 {
		for j := 0; j < n; j++ {
			f(j)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j < n; j = int(next.Add(1)) - 1 {
				f(j)
			}
		}()
	}
	wg.Wait()
}
