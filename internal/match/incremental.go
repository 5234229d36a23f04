// The incremental prefix-extension kernel for Phase 2 (Algorithm 4.2's hot
// spot). The level-wise engine only ever scores right-extensions
// Extend(parent, gap, d) of patterns it scored one level earlier, yet the
// naive kernel re-walks the whole pattern against every window of every
// sample sequence at every level — O(|S|·l) per pattern per sequence, summing
// to O(L²) pattern-position work over L levels. This kernel caches, per
// generating parent and per sequence, the window prefix products, so scoring
// a child costs one matrix-row lookup and one multiply per window and the
// whole lattice costs O(L) pattern-position work.
//
// The cache is a lazy spine: a level's candidates are valued without storing
// anything, and only when the NEXT level references a pattern as a parent is
// its window block materialized — extended in O(1) per window from its own
// parent's block, which is still alive (a referenced parent was a candidate
// one level earlier, so its parent was referenced then). Since typically only
// a small fraction of candidates turn out frequent enough to generate
// children, the spine is an order of magnitude smaller than caching every
// candidate would be — most of the kernel's work is the store-free valuation
// walk. A parent whose ancestor block is missing (first levels, budget
// evictions, orphans) is rebuilt from scratch in O(l) per window and the
// lattice heals from there.
//
// Two further structural wins ride on the cache:
//
//   - Sibling amortization: every child of the same (parent, total length)
//     pair shares one walk of the parent's windows — the window bookkeeping
//     (bounds check, observed-symbol gather) is paid once per parent group,
//     not once per child.
//   - Sample sharding: the sample is split into fixed-size contiguous shards
//     processed by a worker pool. Each (parent, shard) spine block and
//     partial sum is written by exactly one worker, and partial sums are
//     merged in ascending shard order, so results are bit-identical for
//     every worker count.
//
// Because a child's product is the parent's prefix product times one new
// factor — the same left-to-right association Sequence and Compiled.Match
// use — the kernel's per-sequence values are bit-identical to the naive
// kernel's; only the final sum over shards may differ from a straight
// sequential sum in the last float64 bits (associativity), which the
// equivalence tests bound at 1e-12.
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

// defaultShardSize is the number of sample sequences per shard. Shard
// boundaries are a function of the sample alone — never of the worker count —
// so the shard-order merge makes results independent of parallelism.
const defaultShardSize = 32

// entryOverhead approximates the fixed per-entry bookkeeping charged against
// the budget (struct, slice headers, map slot).
const entryOverhead = 96

// IncrementalOptions tunes the kernel; the zero value is a sequential kernel
// with the default budget and shard size.
type IncrementalOptions struct {
	// Workers is the number of shard workers (<= 1: sequential).
	Workers int
	// Budget bounds the bytes of cached prefix products, counting both the
	// previous level's spine and the one under construction. 0 selects
	// DefaultCacheBudget; negative means unlimited. Admission is decided
	// up front from a per-parent size bound, so the kernel never holds more
	// than the budget; parents denied admission fall back to
	// compiled-matcher recomputation — the budget trades speed for memory,
	// never correctness.
	Budget int64
	// ShardSize overrides the sequences-per-shard split (<= 0: default 32).
	// Changing it reassociates the float64 sum merge, so it is fixed for a
	// kernel's lifetime and exposed mainly for tests.
	ShardSize int
}

// LevelStats reports one ValueLevel call.
type LevelStats struct {
	// Extended and Scratch split the level's pattern evaluations by path:
	// valued through a parent's spine block vs per-pattern compiled matching.
	Extended, Scratch int64
	// Windows is the number of spine windows cached for the next level;
	// Bytes the spine memory held when the level closed.
	Windows, Bytes int64
	// Evicted counts parents denied a spine block by the memory budget;
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

// shardWindows is one parent's window products over one shard's sequences,
// CSR-indexed: sequence i of the shard owns starts[offs[i]:offs[i+1]]
// (ascending) and the matching prods. In ramp mode (all-positive matrices —
// every window's product is non-zero) starts is nil: the window starts are
// implicitly 0,1,2,… per sequence.
type shardWindows struct {
	offs   []int32
	starts []int32
	prods  []float64
}

// bytes charges the block's backing arrays (by capacity — what the process
// actually holds) against the budget.
func (sw *shardWindows) bytes() int64 {
	return int64(cap(sw.offs))*4 + int64(cap(sw.starts))*4 + int64(cap(sw.prods))*8
}

func (sw *shardWindows) windows() int64 { return int64(len(sw.prods)) }

// prefixEntry is one parent pattern's spine: its window blocks across all
// shards plus the build plan resolved at setup — src/row extend the
// grandparent's block in O(1) per window, cp rebuilds from scratch when no
// grandparent block survives. dropped parents (budget denials) get no blocks
// and their children score through per-pattern compiled matching.
type prefixEntry struct {
	patLen  int
	dropped bool
	src     *prefixEntry
	row     []float64
	cp      *Compiled
	shards  []shardWindows
}

// Incremental is the kernel. Create with NewIncremental, feed it successive
// lattice levels with ValueLevel, and Release it when mining ends. It is not
// safe for concurrent ValueLevel calls (the engine is level-serial); the
// parallelism is internal.
type Incremental struct {
	c       compat.Source
	rc      *rowCache
	m       int
	sample  [][]pattern.Symbol
	shards  [][2]int // fixed contiguous [lo, hi) sequence ranges
	workers int
	budget  int64
	// ramp is set when the matrix has no zero cells: products can never
	// vanish, so every window survives every level and blocks store only
	// prods (starts are the implicit ramp 0,1,2,… per sequence).
	ramp      bool
	prev      map[string]*prefixEntry // the previous level's spine
	prevBytes int64
	winBound  map[int]int64 // pattern length -> total windows over the sample
	stats     IncrementalStats
	// Spine blocks are sub-sliced out of big chunks whose lifetime is the
	// level's: all of a level's blocks die together at the rotation one
	// level later, so whole chunks recycle deterministically (no GC-driven
	// pool misses) and recycled memory is handed out un-zeroed — every slot
	// of a block is written before the block is read, so the make() clearing
	// this replaces was pure waste. poolMu guards the chunk lists; curF/curI
	// back the level being built, prevF/prevI the closed level serving as
	// parents, freeF/freeI are reusable.
	poolMu      sync.Mutex
	freeF       [][]float64
	freeI       [][]int32
	curF, prevF [][]float64
	curI, prevI [][]int32
}

// chunkFloats/chunkInts size the arena chunks (512 KiB each).
const (
	chunkFloats = 1 << 16
	chunkInts   = 1 << 17
)

// chunkF pops (or allocates) a chunk with room for n floats and records it
// as backing the level under construction.
func (inc *Incremental) chunkF(n int) []float64 {
	var c []float64
	inc.poolMu.Lock()
	for i := len(inc.freeF) - 1; i >= 0; i-- {
		if len(inc.freeF[i]) >= n {
			c = inc.freeF[i]
			inc.freeF = append(inc.freeF[:i], inc.freeF[i+1:]...)
			break
		}
	}
	if c == nil {
		size := chunkFloats
		if n > size {
			size = n
		}
		c = make([]float64, size)
	}
	inc.curF = append(inc.curF, c)
	inc.poolMu.Unlock()
	return c
}

// chunkI is chunkF for int32 window starts.
func (inc *Incremental) chunkI(n int) []int32 {
	var c []int32
	inc.poolMu.Lock()
	for i := len(inc.freeI) - 1; i >= 0; i-- {
		if len(inc.freeI[i]) >= n {
			c = inc.freeI[i]
			inc.freeI = append(inc.freeI[:i], inc.freeI[i+1:]...)
			break
		}
	}
	if c == nil {
		size := chunkInts
		if n > size {
			size = n
		}
		c = make([]int32, size)
	}
	inc.curI = append(inc.curI, c)
	inc.poolMu.Unlock()
	return c
}

// rotateChunks closes the level: the chunks backing the evicted spine become
// free, and the just-built spine's chunks move to the parent position.
func (inc *Incremental) rotateChunks() {
	inc.poolMu.Lock()
	inc.freeF = append(inc.freeF, inc.prevF...)
	inc.freeI = append(inc.freeI, inc.prevI...)
	inc.prevF, inc.prevI = inc.curF, inc.curI
	inc.curF, inc.curI = nil, nil
	inc.poolMu.Unlock()
}

// arenas is one worker's bump allocator over the kernel's chunks.
type arenas struct {
	inc  *Incremental
	fbuf []float64
	foff int
	ibuf []int32
	ioff int
}

// prods carves an n-float block; contents are uninitialized.
func (a *arenas) prods(n int) []float64 {
	if a.foff+n > len(a.fbuf) {
		a.fbuf = a.inc.chunkF(n)
		a.foff = 0
	}
	b := a.fbuf[a.foff : a.foff+n : a.foff+n]
	a.foff += n
	return b
}

// starts carves an n-int32 block; contents are uninitialized.
func (a *arenas) starts(n int) []int32 {
	if a.ioff+n > len(a.ibuf) {
		a.ibuf = a.inc.chunkI(n)
		a.ioff = 0
	}
	b := a.ibuf[a.ioff : a.ioff+n : a.ioff+n]
	a.ioff += n
	return b
}

// NewIncremental builds a kernel over a fixed in-memory sample.
func NewIncremental(c compat.Source, sample [][]pattern.Symbol, o IncrementalOptions) *Incremental {
	shardSize := o.ShardSize
	if shardSize <= 0 {
		shardSize = defaultShardSize
	}
	budget := o.Budget
	if budget == 0 {
		budget = DefaultCacheBudget
	}
	workers := o.Workers
	if workers < 1 {
		workers = 1
	}
	inc := &Incremental{
		c:        c,
		rc:       newRowCache(c),
		m:        c.Size(),
		sample:   sample,
		workers:  workers,
		budget:   budget,
		winBound: make(map[int]int64),
	}
	for lo := 0; lo < len(sample); lo += shardSize {
		hi := lo + shardSize
		if hi > len(sample) {
			hi = len(sample)
		}
		inc.shards = append(inc.shards, [2]int{lo, hi})
	}
	inc.ramp = true
	for d := 0; d < inc.m && inc.ramp; d++ {
		for _, v := range inc.rc.row(pattern.Symbol(d)) {
			if v == 0 {
				inc.ramp = false
				break
			}
		}
	}
	return inc
}

// Stats returns the cumulative kernel statistics.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// Release drops the cache. The kernel stays usable — the next ValueLevel
// simply finds no parents — but callers should treat it as finished.
func (inc *Incremental) Release() {
	inc.prev = nil
	inc.prevBytes = 0
	inc.poolMu.Lock()
	inc.freeF, inc.freeI = nil, nil
	inc.curF, inc.curI = nil, nil
	inc.prevF, inc.prevI = nil, nil
	inc.poolMu.Unlock()
}

// windowsAtLen returns the total number of length-l windows over the sample,
// the exact size of a ramp-mode spine block and an upper bound on a sparse
// one (survivors are a subset).
func (inc *Incremental) windowsAtLen(l int) int64 {
	if n, ok := inc.winBound[l]; ok {
		return n
	}
	var n int64
	for _, seq := range inc.sample {
		if w := len(seq) - l + 1; w > 0 {
			n += int64(w)
		}
	}
	inc.winBound[l] = n
	return n
}

// spineBytesBound is the admission bound for one parent of length l: the
// worst-case bytes its blocks can hold across all shards. Actual usage never
// exceeds it (sparse blocks are compacted or bound-sized), so admitting by
// the bound keeps the spine under budget without mid-level eviction — and
// admission decided serially at setup is what keeps the cached/fallback
// split, and thus every block's contents, independent of worker scheduling.
func (inc *Incremental) spineBytesBound(l int) int64 {
	per := int64(8) // prods
	if !inc.ramp {
		per += 4 // starts
	}
	offs := int64(len(inc.sample)+len(inc.shards)) * 4
	return inc.windowsAtLen(l)*per + offs + entryOverhead
}

// group collects the candidates extending one (parent, total length) pair:
// they share the parent's windows and the observed symbol at the extension
// offset, so the walk is paid once for all of them.
type group struct {
	pe   *prefixEntry
	qLen int
	kids []int
}

// ValueLevel scores one lattice level and rotates the spine: blocks are
// built for the parents this level references (from the previous spine, or
// from scratch when it has no block), the candidates are valued against
// them without storing anything, and the previous spine is evicted when the
// call returns. The returned values equal the naive sample kernel's
// (miner.MatchSampleValuer) for every candidate; see the package comment for
// the exact determinism guarantees.
func (inc *Incremental) ValueLevel(ps []pattern.Pattern) ([]float64, LevelStats, error) {
	out := make([]float64, len(ps))
	var ls LevelStats
	if len(ps) == 0 {
		inc.rotateChunks() // retire the unreferenced spine's chunks
		inc.prev, inc.prevBytes = nil, 0
		return out, ls, nil
	}
	numShards := len(inc.shards)

	// Serial setup: resolve each candidate's generating parent (last symbol
	// dropped, trailing eternals trimmed), admit parents against the budget,
	// and plan each admitted parent's build — extend the grandparent's spine
	// block, or compile the parent for a scratch rebuild. Every candidate
	// also gets a compiled matcher: it is the valuation path for kids of
	// denied parents and for parentless candidates. All rowCache traffic
	// happens here, before the workers start.
	rows := make([][]float64, len(ps))
	scratch := make([]*Compiled, len(ps))
	direct := make([]bool, len(ps))
	parents := make(map[string]*prefixEntry)
	var builds []*prefixEntry
	var groups []*group
	type groupKey struct {
		parent string
		qLen   int
	}
	groupIdx := make(map[groupKey]int)
	spineBound := inc.prevBytes
	maxKids := 1
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, ls, err
		}
		cp, err := compileWith(inc.rc, inc.m, p)
		if err != nil {
			return nil, ls, err
		}
		scratch[i] = cp
		parent := pattern.Trim(p[: len(p)-1 : len(p)-1])
		if parent == nil {
			direct[i] = true
			ls.Scratch++
			continue
		}
		parentKey := parent.Key()
		pe, ok := parents[parentKey]
		if !ok {
			pe = &prefixEntry{patLen: len(parent)}
			if bound := inc.spineBytesBound(len(parent)); inc.budget >= 0 && spineBound+bound > inc.budget {
				pe.dropped = true
				ls.Evicted++
				ls.Fallback = true
			} else {
				spineBound += bound
				pe.shards = make([]shardWindows, numShards)
				if g := pattern.Trim(parent[: len(parent)-1 : len(parent)-1]); g != nil {
					if ge := inc.prev[g.Key()]; ge != nil && !ge.dropped {
						pe.src = ge
						pe.row = inc.rc.row(parent[len(parent)-1])
					}
				}
				if pe.src == nil {
					pcp, err := compileWith(inc.rc, inc.m, parent)
					if err != nil {
						return nil, ls, err
					}
					pe.cp = pcp
				}
				builds = append(builds, pe)
			}
			parents[parentKey] = pe
		}
		if pe.dropped {
			direct[i] = true
			ls.Scratch++
			continue
		}
		rows[i] = inc.rc.row(p[len(p)-1])
		gk := groupKey{parentKey, len(p)}
		gi, ok := groupIdx[gk]
		if !ok {
			gi = len(groups)
			groupIdx[gk] = gi
			groups = append(groups, &group{pe: pe, qLen: len(p)})
		}
		groups[gi].kids = append(groups[gi].kids, i)
		if len(groups[gi].kids) > maxKids {
			maxKids = len(groups[gi].kids)
		}
		ls.Extended++
	}

	// Parallel section: workers claim whole shards, so every (parent, shard)
	// spine block and every partials[s] slice has exactly one writer.
	partials := make([][]float64, numShards)
	var cursor atomic.Int64
	workers := inc.workers
	if workers > numShards {
		workers = numShards
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			best := make([]float64, maxKids)
			a := &arenas{inc: inc}
			for {
				s := int(cursor.Add(1)) - 1
				if s >= numShards {
					return
				}
				partials[s] = inc.processShard(s, ps, groups, builds, scratch, direct, rows, best, a)
			}
		}()
	}
	wg.Wait()

	// Deterministic merge: ascending shard order, then the sample average.
	for s := 0; s < numShards; s++ {
		for i, v := range partials[s] {
			out[i] += v
		}
	}
	if n := len(inc.sample); n > 0 {
		for i := range out {
			out[i] /= float64(n)
		}
	}

	// Rotate: the just-built spine serves the next level, the previous one
	// is evicted. Build plans are cleared so evicted blocks (whose chunks
	// recycle) become unreachable.
	cur := make(map[string]*prefixEntry, len(parents))
	var bytes int64
	for key, e := range parents {
		e.src, e.row, e.cp = nil, nil, nil
		if e.dropped {
			continue
		}
		var windows int64
		for s := range e.shards {
			windows += e.shards[s].windows()
			bytes += e.shards[s].bytes()
		}
		bytes += entryOverhead
		ls.Windows += windows
		cur[key] = e
	}
	peak := inc.prevBytes + bytes
	inc.rotateChunks() // the evicted spine's chunks feed the next build
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

// processShard builds this shard's spine blocks, values every candidate
// against them, and returns the shard's partial sums.
func (inc *Incremental) processShard(s int, ps []pattern.Pattern, groups []*group, builds []*prefixEntry, scratch []*Compiled, direct []bool, rows [][]float64, best []float64, a *arenas) []float64 {
	part := make([]float64, len(ps))
	lo, hi := inc.shards[s][0], inc.shards[s][1]

	for _, pe := range builds {
		if inc.ramp {
			inc.buildRampBlock(s, pe, a)
		} else {
			inc.buildSparseBlock(s, pe, a)
		}
	}
	if inc.ramp {
		inc.valueRampGroups(s, groups, rows, part)
	} else {
		inc.valueSparseGroups(s, groups, rows, best, part)
	}
	for i, cp := range scratch {
		if !direct[i] {
			continue
		}
		// Parentless candidates and kids of budget-denied parents: plain
		// compiled matching, exactly the naive kernel's per-sequence values
		// (best-so-far cutoff and all).
		for si := lo; si < hi; si++ {
			part[i] += cp.Match(inc.sample[si])
		}
	}
	return part
}

// buildRampBlock materializes one parent's window products for one shard in
// ramp mode: extend the grandparent's block by one factor, or rebuild from
// scratch when none survives. Window counts are fully determined by lengths
// (every product is non-zero), so block sizes are exact.
func (inc *Incremental) buildRampBlock(s int, pe *prefixEntry, a *arenas) {
	lo, hi := inc.shards[s][0], inc.shards[s][1]
	qLen := pe.patLen
	sw := &pe.shards[s]
	offs := make([]int32, hi-lo+1)
	if src := pe.src; src != nil {
		pw := &src.shards[s]
		row := pe.row
		off := qLen - 1
		dst := a.prods(len(pw.prods))
		n := 0
		for si := lo; si < hi; si++ {
			seq := inc.sample[si]
			wlo := int(pw.offs[si-lo])
			wn := int(pw.offs[si-lo+1]) - wlo
			// The widened window drops the tail starts.
			if lim := len(seq) - qLen + 1; wn > lim {
				wn = lim
			}
			if wn > 0 {
				prods := pw.prods[wlo : wlo+wn]
				obs := seq[off : off+wn] // same length as prods: checks eliminated
				d := dst[n : n+wn]
				for j, p := range prods {
					d[j] = p * row[obs[j]]
				}
				n += wn
			}
			offs[si-lo+1] = int32(n)
		}
		sw.prods = dst[:n]
	} else {
		total := 0
		for si := lo; si < hi; si++ {
			if w := len(inc.sample[si]) - qLen + 1; w > 0 {
				total += w
			}
		}
		prods := a.prods(total)[:0]
		for si := lo; si < hi; si++ {
			prods, _ = pe.cp.appendProds(inc.sample[si], prods)
			offs[si-lo+1] = int32(len(prods))
		}
		sw.prods = prods
	}
	sw.offs = offs
}

// buildSparseBlock is buildRampBlock for matrices with zero cells, where
// windows genuinely die and the surviving subset (starts + prods) must be
// recorded. Builders are sized to the parent bound (survivors are a subset)
// and compacted when sparse enough; the bound-sized builders stay in their
// chunks until the level's chunks recycle.
func (inc *Incremental) buildSparseBlock(s int, pe *prefixEntry, a *arenas) {
	lo, hi := inc.shards[s][0], inc.shards[s][1]
	qLen := pe.patLen
	sw := &pe.shards[s]
	offs := make([]int32, hi-lo+1)
	var kst []int32
	var kpr []float64
	n, bound := 0, 0
	if src := pe.src; src != nil {
		pw := &src.shards[s]
		row := pe.row
		off := int32(qLen - 1)
		bound = len(pw.starts)
		kst = a.starts(bound)
		kpr = a.prods(bound)
		for si := lo; si < hi; si++ {
			seq := inc.sample[si]
			wlo, whi := pw.offs[si-lo], pw.offs[si-lo+1]
			limit := int32(len(seq) - qLen)
			// Starts ascend, so the windows still wide enough for the parent
			// are a prefix; find its end once instead of testing per window.
			whiEff := whi
			if whi > wlo && pw.starts[whi-1] > limit {
				l, h := wlo, whi
				for l < h {
					if mid := (l + h) / 2; pw.starts[mid] > limit {
						h = mid
					} else {
						l = mid + 1
					}
				}
				whiEff = l
			}
			for w := wlo; w < whiEff; w++ {
				st := pw.starts[w]
				if v := pw.prods[w] * row[seq[st+off]]; v != 0 {
					kst[n] = st
					kpr[n] = v
					n++
				}
			}
			offs[si-lo+1] = int32(n)
		}
	} else {
		for si := lo; si < hi; si++ {
			if w := len(inc.sample[si]) - qLen + 1; w > 0 {
				bound += w
			}
		}
		starts := a.starts(bound)[:0]
		prods := a.prods(bound)[:0]
		for si := lo; si < hi; si++ {
			starts, prods, _ = pe.cp.appendWindows(inc.sample[si], starts, prods)
			offs[si-lo+1] = int32(len(prods))
		}
		kst, kpr, n = starts[:bound:bound], prods[:bound:bound], len(prods)
	}
	if n*2 < bound {
		// Compact before the budget accounting sees the block, so it is
		// charged for what survives, not the reservation.
		sw.starts = append(make([]int32, 0, n), kst[:n]...)
		sw.prods = append(make([]float64, 0, n), kpr[:n]...)
	} else {
		sw.starts = kst[:n]
		sw.prods = kpr[:n]
	}
	sw.offs = offs
}

// valueRampGroups scores every cached group's kids against one shard in ramp
// mode: a branch-free streaming max over the parent's products, storing
// nothing.
func (inc *Incremental) valueRampGroups(s int, groups []*group, rows [][]float64, part []float64) {
	lo, hi := inc.shards[s][0], inc.shards[s][1]
	for _, g := range groups {
		pw := &g.pe.shards[s]
		kids := g.kids
		krows := make([][]float64, len(kids))
		for ci, i := range kids {
			krows[ci] = rows[i]
		}
		off := g.qLen - 1
		for si := lo; si < hi; si++ {
			seq := inc.sample[si]
			wlo := int(pw.offs[si-lo])
			wn := int(pw.offs[si-lo+1]) - wlo
			if lim := len(seq) - g.qLen + 1; wn > lim {
				wn = lim
			}
			if wn <= 0 {
				continue
			}
			prods := pw.prods[wlo : wlo+wn]
			obs := seq[off : off+wn] // same length as prods: checks eliminated
			for ci, i := range kids {
				row := krows[ci]
				b := 0.0
				for j, p := range prods {
					if v := p * row[obs[j]]; v > b {
						b = v
					}
				}
				part[i] += b
			}
		}
	}
}

// valueSparseGroups is valueRampGroups for matrices with zero cells: the
// surviving windows' recorded starts drive the observed-symbol gather, and
// the widened-window clip binary-searches the ascending starts.
func (inc *Incremental) valueSparseGroups(s int, groups []*group, rows [][]float64, best []float64, part []float64) {
	lo, hi := inc.shards[s][0], inc.shards[s][1]
	for _, g := range groups {
		pw := &g.pe.shards[s]
		kids := g.kids
		krows := make([][]float64, len(kids))
		for ci, i := range kids {
			krows[ci] = rows[i]
		}
		off := int32(g.qLen - 1)
		for si := lo; si < hi; si++ {
			seq := inc.sample[si]
			wlo, whi := pw.offs[si-lo], pw.offs[si-lo+1]
			limit := int32(len(seq) - g.qLen)
			whiEff := whi
			if whi > wlo && pw.starts[whi-1] > limit {
				l, h := wlo, whi
				for l < h {
					if mid := (l + h) / 2; pw.starts[mid] > limit {
						h = mid
					} else {
						l = mid + 1
					}
				}
				whiEff = l
			}
			for ci := range kids {
				best[ci] = 0
			}
			for w := wlo; w < whiEff; w++ {
				pprod := pw.prods[w]
				obs := seq[pw.starts[w]+off]
				for ci := range kids {
					if v := pprod * krows[ci][obs]; v > best[ci] {
						best[ci] = v
					}
				}
			}
			for ci, i := range kids {
				part[i] += best[ci]
			}
		}
	}
}
