// Package growth is the depth-first pattern-growth (PrefixSpan-style)
// Phase 2 engine: instead of generating, valuing and pruning whole lattice
// levels like the level-wise miner, it grows each alive pattern by right
// extension over a projected sample database (match.Projection — the
// per-sequence surviving-window prefix products), so valuing a sibling group
// costs one walk of the surviving windows shared by every sibling, and an
// extension subtree is abandoned as soon as the projection's optimistic
// bound (max remaining parent product × max row factor) is
// Chernoff-infrequent.
//
// # Result equivalence
//
// Mine produces the same miner.Result the level-wise SampleChernoff engine
// produces — the same Frequent/Ambiguous sets, the same Labels, Spreads,
// CandidatesPerLevel and AlivePerLevel, and bit-identical Values for every
// candidate it values (bound-pruned candidates are labeled infrequent
// without a value; everything else in Values matches the incremental
// kernel's floats exactly, because the projection walk replicates its
// left-to-right products and ascending shard-merge summation).
//
// Three properties make the equivalence exact rather than approximate:
//
//   - Admission parity. A child is admitted exactly under the level-wise
//     engine's Apriori rule — every immediate subpattern inside the explored
//     space is alive. Subpatterns living in other DFS subtrees are resolved
//     on demand: the resolver walks the subpattern's generating-parent chain
//     and has the deepest alive parent process its node (classify every
//     child exactly once, globally), so no pattern is ever valued twice and
//     the candidate set equals the level-wise engine's level by level.
//   - Bound soundness in float64. The optimistic bound dominates the true
//     child value term by term under float monotonicity (see
//     match.Projection.Bound), so a bound classified infrequent proves the
//     raw label the level-wise engine would compute; labels never diverge.
//   - Deterministic parallelism. Every node is processed exactly once — the
//     first worker to need it claims it in a shared registry, later arrivals
//     wait on its completion — and each processing is a pure function of the
//     pattern: projections are rebuilt from the same left-to-right extension
//     chain whether they come out of a worker's cache or are rebuilt on the
//     spot, so caching affects speed, never floats. Claim waits cannot
//     deadlock: a node at lattice level k only ever waits on nodes at level
//     k−1 (its children's subpatterns' parents), so the waits-on relation is
//     graded by level and therefore acyclic. Results are bit-identical for
//     every worker count and every cache budget.
//
// # Bounded resources
//
// One byte budget (Config.Budget) bounds the projections cached by the
// whole engine: it is split evenly across the workers' caches, so the bytes
// cached at any instant never exceed it whatever the worker count. The
// level-wise engine's per-level candidate cap has no depth-first analogue —
// truncating a level keeps its best-parented candidates, which a DFS cannot
// know until the level is complete — so a level whose candidate count
// exceeds Config.MaxCandidatesPerLevel stops the run with a *CapError, and
// the caller re-runs Phase 2 level-wise (core does) to get the truncated
// result the level-wise engine defines.
package growth

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/chernoff"
	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// Config parameterizes one growth run. MinMatch, Delta and MaxLen are
// required; the zero value of everything else selects the documented
// default.
type Config struct {
	// SymbolMatch, when non-nil, holds the exact full-database match of
	// every symbol (Phase 1's output): level-1 patterns are labeled exactly
	// and restricted spreads are derived from it; when nil, level 1 goes
	// through the Chernoff classifier and spreads default to 1 — the same
	// contract as miner.Engine.SymbolMatch.
	SymbolMatch []float64
	// MinMatch is the significance threshold; Delta the Chernoff failure
	// probability (both forwarded to chernoff.NewClassifier).
	MinMatch, Delta float64
	// MaxLen bounds total pattern length (>= 1); MaxGap bounds runs of
	// eternal symbols; MaxK caps the lattice level (0 = no cap).
	MaxLen, MaxGap, MaxK int
	// MaxCandidatesPerLevel, when > 0, is the level-wise engine's per-level
	// candidate cap: as soon as a level's candidate count exceeds it, Mine
	// stops with a *CapError (the level-wise engine would truncate that
	// level). Level 1 is never capped, as in the level-wise engine.
	MaxCandidatesPerLevel int
	// Workers shards the DFS roots across goroutines (-1 = GOMAXPROCS,
	// 0/1 = sequential). Results are bit-identical for every count.
	Workers int
	// Budget caps the projection bytes cached by the whole engine
	// (0 = DefaultBudget, negative = unlimited), split evenly across the
	// workers' caches. A projection too large for its worker's share is
	// built transiently and dropped — slower on the next visit, never
	// different: a projection is the same object whether extended from a
	// cached prefix or rebuilt from scratch, so the cache (and with it every
	// recorded float) is invisible to the results.
	Budget int64
	// Scratch disables projections entirely: every candidate is valued by
	// per-pattern compiled matching (the naive-kernel discipline, still
	// shard-merged and therefore still bit-identical). Wired to
	// core.KernelNaive for differential testing.
	Scratch bool
	// Metrics receives growth telemetry (nil disables collection).
	Metrics *telemetry.Metrics
	// Ctx, when non-nil, is checked at every node expansion.
	Ctx context.Context
}

// DefaultBudget is the engine-wide projection cache budget when
// Config.Budget is 0. It sits on the plateau of the budget sweep in DESIGN
// "Pattern-growth Phase 2": on the long-low recipe a 4× larger cache saves
// no Phase 2 time and triples peak memory, while 4 MiB costs 30%. The
// budget trades speed for memory, never results.
const DefaultBudget int64 = 32 << 20

// CapError reports that lattice level Level holds more than Cap candidates —
// the level the level-wise engine would truncate. Mine returns it as soon as
// the count passes the cap; the candidates recorded so far are discarded.
type CapError struct {
	Level, Cap int
}

func (e *CapError) Error() string {
	return fmt.Sprintf("growth: level %d exceeds the cap of %d candidates", e.Level, e.Cap)
}

// memoEntry caches one pattern's resolved label for admission checks and
// label clamping. explored reports whether the level-wise engine would have
// enumerated the pattern at all (generated by an alive parent with every
// in-space immediate subpattern alive); label is meaningful only when it
// would.
type memoEntry struct {
	label    chernoff.Label
	explored bool
}

type engine struct {
	cfg Config
	m   int
	cls *chernoff.Classifier
	pj  *match.Projector

	aliveSymbols []pattern.Symbol
	alive1       []bool // per-symbol level-1 liveness, for the dead-symbol shortcut

	// mu guards memo, done, res and the per-level tallies. Valuation happens
	// outside the lock; the done registry guarantees each node is processed
	// by exactly one worker.
	mu    sync.Mutex
	memo  map[string]memoEntry
	done  map[string]chan struct{} // node-processing claims; closed when complete
	res   *miner.Result
	cand  []int // candidates recorded per lattice level (1-indexed by K)
	alive []int

	err    atomic.Pointer[error]
	cached atomic.Int64 // projection bytes cached across all workers
	peak   atomic.Int64 // high-water mark of cached
}

// Mine runs the growth engine over the sample. The result is interchangeable
// with miner.SampleChernoff's (see the package comment); Scans is 0 — the
// DFS never batches valuer calls — LevelMillis is nil and Truncated is
// always false: where the level-wise engine would truncate, Mine returns a
// *CapError instead.
func Mine(c compat.Source, sample [][]pattern.Symbol, cfg Config) (*miner.Result, error) {
	m := c.Size()
	if m < 1 {
		return nil, fmt.Errorf("growth: alphabet size %d < 1", m)
	}
	if cfg.MaxLen < 1 {
		return nil, fmt.Errorf("growth: MaxLen %d < 1", cfg.MaxLen)
	}
	if cfg.MaxGap < 0 || cfg.MaxK < 0 || cfg.MaxCandidatesPerLevel < 0 {
		return nil, fmt.Errorf("growth: negative cap")
	}
	cls, err := chernoff.NewClassifier(cfg.MinMatch, cfg.Delta, len(sample))
	if err != nil {
		return nil, err
	}
	if cfg.Budget == 0 {
		cfg.Budget = DefaultBudget
	}
	e := &engine{
		cfg:    cfg,
		m:      m,
		cls:    cls,
		pj:     match.NewProjector(c, sample, 0),
		memo:   make(map[string]memoEntry),
		done:   make(map[string]chan struct{}),
		alive1: make([]bool, m),
		res: &miner.Result{
			Frequent:  pattern.NewSet(),
			Ambiguous: pattern.NewSet(),
			Values:    make(map[string]float64),
			Spreads:   make(map[string]float64),
			Labels:    make(map[string]chernoff.Label),
		},
	}

	// Level 1: value and label every symbol exactly like the level-wise
	// engine's first iteration. Alive symbols, in ascending order, are both
	// the extension alphabet and the DFS roots.
	var roots []pattern.Pattern
	for d := 0; d < m; d++ {
		p := pattern.Pattern{pattern.Symbol(d)}
		v, err := e.pj.Value(p)
		if err != nil {
			return nil, err
		}
		spread := 1.0
		var label chernoff.Label
		if cfg.SymbolMatch != nil {
			spread = chernoff.RestrictedSpread(p, cfg.SymbolMatch)
			if cfg.SymbolMatch[d] >= cfg.MinMatch {
				label = chernoff.Frequent
			} else {
				label = chernoff.Infrequent
			}
		} else {
			label = cls.Classify(v, spread)
		}
		e.record(p, 1, v, true, spread, label)
		e.memo[p.Key()] = memoEntry{label: label, explored: true}
		if label != chernoff.Infrequent {
			e.alive1[d] = true
			e.aliveSymbols = append(e.aliveSymbols, pattern.Symbol(d))
			roots = append(roots, p)
		}
	}

	// DFS, sharded by root subtree: workers claim alive 1-patterns from an
	// atomic cursor and explore each subtree depth first. Node processing is
	// deduplicated globally through the done registry, so demand-driven
	// resolution from other subtrees never repeats work.
	if len(roots) > 0 && cfg.MaxLen >= 2 && (cfg.MaxK == 0 || cfg.MaxK >= 2) {
		workers := cfg.Workers
		if workers < 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers < 1 {
			workers = 1
		}
		if workers > len(roots) {
			workers = len(roots)
		}
		share := cfg.Budget
		if share > 0 {
			share /= int64(workers)
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pc := newProjCache(e, share)
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(roots) || e.err.Load() != nil {
						return
					}
					if err := e.walk(pc, roots[i]); err != nil {
						e.fail(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if perr := e.err.Load(); perr != nil {
			return nil, *perr
		}
	}

	e.res.CandidatesPerLevel = e.cand
	e.res.AlivePerLevel = e.alive
	e.res.FQT = pattern.Border(e.res.Frequent)
	combined := e.res.Frequent.Clone()
	combined.Union(e.res.Ambiguous)
	e.res.Ceiling = pattern.Border(combined)
	// Lattice telemetry is recorded only for a completed run, so a run that
	// hands a capped level back to the level-wise engine is not counted twice.
	for _, n := range e.cand {
		cfg.Metrics.LevelEvaluated(n)
	}
	for _, label := range e.res.Labels {
		cfg.Metrics.Classified(int(label))
	}
	cfg.Metrics.GrowthPeakBytes(e.peak.Load())
	return e.res, nil
}

// fail records the first error; workers drain at the next node check.
func (e *engine) fail(err error) {
	e.err.CompareAndSwap(nil, &err)
}

func (e *engine) memoGet(key string) (memoEntry, bool) {
	e.mu.Lock()
	ent, ok := e.memo[key]
	e.mu.Unlock()
	return ent, ok
}

// memoPut stores an entry; concurrent duplicate computations produce
// identical entries, so the first write wins.
func (e *engine) memoPut(key string, ent memoEntry) {
	e.mu.Lock()
	if _, ok := e.memo[key]; !ok {
		e.memo[key] = ent
	}
	e.mu.Unlock()
}

// walk explores the subtree rooted at the alive pattern p: process p's node
// (classify all children — deduplicated globally, so a node another worker
// already demand-processed is not repeated), then recurse into the alive
// children read back from the memo. Every deeper pattern keeps its root's
// first symbol, so subtree walks are disjoint and each alive pattern is
// walked exactly once.
func (e *engine) walk(pc *projCache, p pattern.Pattern) error {
	if err := e.processNode(pc, p); err != nil {
		return err
	}
	k := p.K()
	if e.cfg.MaxK > 0 && k+1 > e.cfg.MaxK {
		return nil
	}
	for gap := 0; gap <= e.cfg.MaxGap; gap++ {
		qLen := p.Len() + gap + 1
		if qLen > e.cfg.MaxLen {
			break
		}
		for _, d := range e.aliveSymbols {
			q := pattern.Extend(p, gap, d)
			ent, ok := e.memoGet(q.Key())
			if !ok || !ent.explored || ent.label == chernoff.Infrequent {
				continue
			}
			if err := e.walk(pc, q); err != nil {
				return err
			}
		}
	}
	return nil
}

// processNode enumerates, admits, bound-prunes and values every child of the
// alive pattern p, recording each into the result maps and the memo — exactly
// once globally: the first worker to arrive claims the node in the done
// registry and later arrivals block until the claim closes. A claim only ever
// waits (through resolve) on claims at strictly lower lattice levels, so the
// waits-on relation is acyclic. Children that fail admission are memoized as
// unexplored so demand resolution never re-derives them.
func (e *engine) processNode(pc *projCache, p pattern.Pattern) error {
	k := p.K()
	if e.cfg.MaxK > 0 && k+1 > e.cfg.MaxK {
		return nil
	}
	if p.Len()+1 > e.cfg.MaxLen {
		return nil
	}
	if e.cfg.Ctx != nil {
		if err := e.cfg.Ctx.Err(); err != nil {
			return err
		}
	}
	if perr := e.err.Load(); perr != nil {
		return *perr
	}
	key := p.Key()
	e.mu.Lock()
	if ch, ok := e.done[key]; ok {
		e.mu.Unlock()
		<-ch
		return nil
	}
	ch := make(chan struct{})
	e.done[key] = ch
	e.mu.Unlock()
	defer close(ch)

	spread := 1.0
	if e.cfg.SymbolMatch != nil {
		spread = chernoff.RestrictedSpread(p, e.cfg.SymbolMatch)
	}
	proj, err := pc.proj(p)
	if err != nil {
		e.fail(err)
		return err
	}
	var nodeValued, nodeScratch, nodePruned int64
	for gap := 0; gap <= e.cfg.MaxGap; gap++ {
		qLen := p.Len() + gap + 1
		if qLen > e.cfg.MaxLen {
			break
		}
		// Admission: the level-wise Apriori rule, with cross-subtree
		// subpattern labels resolved on demand. Admitted siblings of one
		// (parent, gap) group share a single projection walk.
		type kid struct {
			q      pattern.Pattern
			d      pattern.Symbol
			spread float64
			minSub chernoff.Label
		}
		var kids []kid
		var ds []pattern.Symbol
		var prof match.Profile
		haveProf := false
		for _, d := range e.aliveSymbols {
			q := pattern.Extend(p, gap, d)
			minSub, ok, err := e.subsAlive(pc, q)
			if err != nil {
				e.fail(err)
				return err
			}
			if !ok {
				e.memoPut(q.Key(), memoEntry{})
				continue
			}
			sq := spread
			if e.cfg.SymbolMatch != nil && e.cfg.SymbolMatch[d] < sq {
				sq = e.cfg.SymbolMatch[d]
			}
			if proj != nil {
				// Bound-prune: an optimistic bound already infrequent at the
				// child's (tighter) spread proves the raw label without
				// valuing — Values gets no entry, Labels the same label the
				// level-wise engine records. One profile walk per (node, gap)
				// serves every sibling's bound and exact value.
				if !haveProf {
					prof = proj.Profile(qLen, &pc.prof)
					haveProf = true
				}
				if e.cls.Classify(proj.Bound(prof.Clip(), e.pj.RowMax(d)), sq) == chernoff.Infrequent {
					e.record(q, k+1, 0, false, sq, chernoff.Infrequent)
					e.memoPut(q.Key(), memoEntry{label: chernoff.Infrequent, explored: true})
					nodePruned++
					continue
				}
			}
			kids = append(kids, kid{q, d, sq, minSub})
			ds = append(ds, d)
		}
		if len(kids) == 0 {
			continue
		}
		var values []float64
		if proj != nil {
			values = prof.ValueKids(ds)
			nodeValued += int64(len(kids))
		} else {
			values = make([]float64, len(kids))
			for i, kd := range kids {
				v, err := e.pj.Value(kd.q)
				if err != nil {
					e.fail(err)
					return err
				}
				values[i] = v
			}
			nodeScratch += int64(len(kids))
		}
		for i, kd := range kids {
			label := e.cls.Classify(values[i], kd.spread)
			if label != chernoff.Infrequent && kd.minSub < label {
				label = kd.minSub
			}
			e.record(kd.q, k+1, values[i], true, kd.spread, label)
			e.memoPut(kd.q.Key(), memoEntry{label: label, explored: true})
		}
	}
	e.cfg.Metrics.GrowthNode(nodeValued, nodeScratch, nodePruned)
	return nil
}

// subsAlive applies the level-wise engine's admission rule to q: every
// immediate subpattern inside the explored space must be alive. It returns
// the minimum subpattern label (the clamp bound) and whether q is admitted.
func (e *engine) subsAlive(pc *projCache, q pattern.Pattern) (chernoff.Label, bool, error) {
	minSub := chernoff.Frequent
	for _, sub := range q.ImmediateSubpatterns() {
		if maxGapRun(sub) > e.cfg.MaxGap {
			continue // outside the explored space, never enumerated
		}
		label, explored, err := e.resolve(pc, sub)
		if err != nil {
			return 0, false, err
		}
		if !explored || label == chernoff.Infrequent {
			return 0, false, nil
		}
		if label < minSub {
			minSub = label
		}
	}
	return minSub, true, nil
}

// resolve reports the label the level-wise engine would record for p without
// ever valuing p itself: if the memo misses, it walks p's generating-parent
// chain (strictly shorter patterns, so the recursion is well founded) and,
// when the parent is alive and explored, has the parent's node processed —
// which classifies p along with all its siblings, exactly once globally. A
// pattern the level-wise engine would never enumerate (out of space, a dead
// symbol inside, its parent dead or unexplored) reports explored == false.
func (e *engine) resolve(pc *projCache, p pattern.Pattern) (chernoff.Label, bool, error) {
	key := p.Key()
	if ent, ok := e.memoGet(key); ok {
		return ent.label, ent.explored, nil
	}
	// 1-patterns are pre-seeded, so p has at least two concrete symbols.
	if p.Len() > e.cfg.MaxLen || (e.cfg.MaxK > 0 && p.K() > e.cfg.MaxK) {
		e.memoPut(key, memoEntry{})
		return 0, false, nil
	}
	// Dead-symbol shortcut: any pattern containing a level-1-infrequent
	// symbol is unexplored — by induction some immediate subpattern chain
	// descends to that dead 1-pattern, killing admission at every step up.
	for _, s := range p {
		if !s.IsEternal() && !e.alive1[s] {
			e.memoPut(key, memoEntry{})
			return 0, false, nil
		}
	}
	parent := dropLast(p)
	plabel, pexplored, err := e.resolve(pc, parent)
	if err != nil {
		return 0, false, err
	}
	if !pexplored || plabel == chernoff.Infrequent {
		e.memoPut(key, memoEntry{})
		return 0, false, nil
	}
	if err := e.processNode(pc, parent); err != nil {
		return 0, false, err
	}
	ent, ok := e.memoGet(key)
	if !ok {
		if perr := e.err.Load(); perr != nil {
			return 0, false, *perr
		}
		return 0, false, fmt.Errorf("growth: %s unresolved after processing its parent", key)
	}
	return ent.label, ent.explored, nil
}

// dropLast returns p's generating parent: p minus its final concrete symbol
// and the eternal run before it. Callers guarantee p has >= 2 concrete
// symbols and ends on a concrete one.
func dropLast(p pattern.Pattern) pattern.Pattern {
	i := len(p) - 2
	for i >= 0 && p[i].IsEternal() {
		i--
	}
	return p[:i+1]
}

// record exports one enumerated candidate into the result maps and the
// per-level tallies. Each pattern's parent node is processed by exactly one
// worker, so every key is written once.
func (e *engine) record(q pattern.Pattern, k int, v float64, hasValue bool, spread float64, label chernoff.Label) {
	key := q.Key()
	e.mu.Lock()
	if hasValue {
		e.res.Values[key] = v
	}
	e.res.Spreads[key] = spread
	e.res.Labels[key] = label
	for len(e.cand) < k {
		e.cand = append(e.cand, 0)
		e.alive = append(e.alive, 0)
	}
	e.cand[k-1]++
	if limit := e.cfg.MaxCandidatesPerLevel; limit > 0 && k > 1 && e.cand[k-1] > limit {
		e.fail(&CapError{Level: k, Cap: limit})
	}
	switch label {
	case chernoff.Frequent:
		e.res.Frequent.Add(q)
		e.alive[k-1]++
	case chernoff.Ambiguous:
		e.res.Ambiguous.Add(q)
		e.alive[k-1]++
	}
	e.mu.Unlock()
}

// maxGapRun returns the longest run of eternal symbols in p.
func maxGapRun(p pattern.Pattern) int {
	run, max := 0, 0
	for _, s := range p {
		if s.IsEternal() {
			run++
			if run > max {
				max = run
			}
		} else {
			run = 0
		}
	}
	return max
}
