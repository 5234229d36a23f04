// Package maxminer implements the deterministic look-ahead baseline of the
// paper's §5.6: Bayardo's Max-Miner adapted to sequential patterns under the
// match measure ("the only modification to the Max-Miner is the computation
// of match value of a pattern").
//
// Max-Miner's item-set union lookahead does not transfer verbatim to
// positional patterns: appending tail items shifts positions, so the union
// of two extensions is not a superpattern of each. The adaptation used here
// exploits the eternal symbol instead: for an alive pattern h, the lookahead
// is a chain h·s₁·s₂·… built by greedily following the best bigram
// continuation (the symbol y maximizing match(x·y) after the chain's last
// symbol x, learned from the level-2 counts — the positional analogue of
// Max-Miner's support-based tail reordering). Starring any subset of the
// appended symbols (and trimming) yields a subpattern of the chain, so a
// frequent chain proves a whole cube of extensions frequent at once — the
// analogue of "if h∪T(g) is frequent, stop expanding the group". Candidates
// covered by a confirmed lookahead are labeled frequent without being
// counted, and a lattice level whose candidates are all covered costs no
// scan, which is how the algorithm escapes one-scan-per-level behavior on
// long patterns.
//
// Like the original Max-Miner (and unlike Phase 3's memory-budgeted
// probing), counters for one level's candidates plus lookaheads are assumed
// to fit in memory.
package maxminer

import (
	"fmt"
	"sort"

	"repro/internal/miner"
	"repro/internal/pattern"
)

// Result reports a Max-Miner run.
type Result struct {
	// Frequent is the complete frequent region within the option bounds.
	Frequent *pattern.Set
	// Border is the border of Frequent (the maximal frequent patterns).
	Border *pattern.Set
	// Scans counts full database passes (valuer invocations).
	Scans int
	// Counted is the number of patterns evaluated against the database.
	Counted int
	// LookaheadHits counts candidates proven frequent by a lookahead chain
	// without being counted.
	LookaheadHits int
}

// Mine runs the adapted Max-Miner. valuer supplies database matches at one
// scan per invocation; opts bounds the pattern space exactly as in the
// level-wise engine, so results are comparable pattern-for-pattern.
func Mine(m int, valuer miner.Valuer, minMatch float64, opts miner.Options) (*Result, error) {
	if m < 1 {
		return nil, fmt.Errorf("maxminer: alphabet size %d < 1", m)
	}
	if opts.MaxLen < 1 {
		return nil, fmt.Errorf("maxminer: MaxLen %d < 1", opts.MaxLen)
	}
	if opts.MaxGap < 0 {
		return nil, fmt.Errorf("maxminer: negative MaxGap")
	}
	if valuer == nil {
		return nil, fmt.Errorf("maxminer: valuer is required")
	}
	run := &run{
		valuer:   valuer,
		minMatch: minMatch,
		opts:     opts,
		res:      &Result{Frequent: pattern.NewSet()},
		labels:   make(map[string]bool),
		bigram:   make(map[pattern.Symbol]map[pattern.Symbol]float64),
		chains:   pattern.NewSet(),
	}
	if err := run.mine(m); err != nil {
		return nil, err
	}
	run.res.Border = pattern.Border(run.res.Frequent)
	return run.res, nil
}

type run struct {
	valuer   miner.Valuer
	minMatch float64
	opts     miner.Options
	res      *Result
	labels   map[string]bool // key -> frequent?
	bigram   map[pattern.Symbol]map[pattern.Symbol]float64
	chains   *pattern.Set // confirmed frequent lookahead chains
	alive    []pattern.Pattern
	aliveSym []pattern.Symbol
}

func (r *run) mine(m int) error {
	// Scan 1: symbol matches.
	level := make([]pattern.Pattern, 0, m)
	for d := 0; d < m; d++ {
		level = append(level, pattern.Pattern{pattern.Symbol(d)})
	}
	values, err := r.valuer(level)
	if err != nil {
		return err
	}
	r.res.Scans++
	r.res.Counted += len(level)
	r.opts.Metrics.LevelEvaluated(len(level))
	symMatch := make(map[pattern.Symbol]float64, m)
	for i, p := range level {
		freq := values[i] >= r.minMatch
		r.labels[p.Key()] = freq
		if freq {
			r.res.Frequent.Add(p)
			r.alive = append(r.alive, p)
			r.aliveSym = append(r.aliveSym, p[0])
			symMatch[p[0]] = values[i]
		}
	}
	// Stable symbol order for candidate generation.
	sort.Slice(r.aliveSym, func(a, b int) bool { return r.aliveSym[a] < r.aliveSym[b] })

	for len(r.alive) > 0 {
		next := r.generate()
		if len(next) == 0 {
			break
		}
		var toCount, covered []pattern.Pattern
		for _, q := range next {
			// Covered means q is a subpattern of a confirmed chain — the
			// Apriori direction: subpatterns of a frequent pattern are
			// frequent. (The superpattern direction would be unsound: a
			// superpattern of a frequent chain can still be infrequent.)
			if r.chains.CoveredBy(q) {
				covered = append(covered, q)
				r.res.LookaheadHits++
			} else {
				toCount = append(toCount, q)
			}
		}
		lookaheads := r.buildLookaheads(toCount)

		var batchValues []float64
		if len(toCount)+len(lookaheads) > 0 {
			batch := append(append([]pattern.Pattern(nil), toCount...), lookaheads...)
			batchValues, err = r.valuer(batch)
			if err != nil {
				return err
			}
			r.res.Scans++
			r.res.Counted += len(batch)
			r.opts.Metrics.LevelEvaluated(len(batch))
		}

		// Lookahead outcomes first, so a chain confirmed in this scan can
		// never be contradicted by its (also counted) sub-candidates.
		for i, la := range lookaheads {
			v := batchValues[len(toCount)+i]
			r.labels[la.Key()] = v >= r.minMatch
			if v >= r.minMatch {
				r.chains.Add(la)
				r.res.Frequent.Add(la)
			}
		}
		r.alive = r.alive[:0]
		for i, q := range toCount {
			freq := batchValues[i] >= r.minMatch
			r.labels[q.Key()] = freq
			r.recordBigram(q, batchValues[i])
			if freq {
				r.res.Frequent.Add(q)
				r.alive = append(r.alive, q)
			}
		}
		for _, q := range covered {
			r.labels[q.Key()] = true
			r.res.Frequent.Add(q)
			r.alive = append(r.alive, q)
		}
	}
	return nil
}

// recordBigram captures contiguous 2-pattern matches; they steer the greedy
// lookahead chains.
func (r *run) recordBigram(q pattern.Pattern, v float64) {
	if len(q) != 2 || q[0].IsEternal() || q[1].IsEternal() {
		return
	}
	row := r.bigram[q[0]]
	if row == nil {
		row = make(map[pattern.Symbol]float64)
		r.bigram[q[0]] = row
	}
	row[q[1]] = v
}

// generate is the same right-extension Apriori candidate generator as the
// level-wise engine (subpatterns outside the gap-bounded space are exempt).
func (r *run) generate() []pattern.Pattern {
	var next []pattern.Pattern
	for _, p := range r.alive {
		for gap := 0; gap <= r.opts.MaxGap; gap++ {
			if p.Len()+gap+1 > r.opts.MaxLen {
				break
			}
			for _, d := range r.aliveSym {
				q := pattern.Extend(p, gap, d)
				if r.subpatternsFrequent(q) {
					next = append(next, q)
				}
			}
		}
	}
	return next
}

func (r *run) subpatternsFrequent(q pattern.Pattern) bool {
	for _, sub := range q.ImmediateSubpatterns() {
		if sub.MaxGapRun() > r.opts.MaxGap {
			continue
		}
		if !r.labels[sub.Key()] {
			return false
		}
	}
	return true
}

// buildLookaheads forms one greedy chain per distinct generating parent of
// the uncounted candidates: the parent extended (gap 0) by the best bigram
// continuation of its last symbol, repeatedly, until MaxLen or no known
// continuation. Chains already decided, already covered by a confirmed
// chain, or no deeper than the candidates are skipped.
func (r *run) buildLookaheads(toCount []pattern.Pattern) []pattern.Pattern {
	if len(r.bigram) == 0 {
		return nil // no continuation evidence yet (level 2 not counted)
	}
	seenParent := make(map[string]bool)
	seenChain := make(map[string]bool)
	var out []pattern.Pattern
	for _, q := range toCount {
		parent := generatingParent(q)
		if parent == nil {
			continue
		}
		pk := parent.Key()
		if seenParent[pk] {
			continue
		}
		seenParent[pk] = true
		chain := r.greedyChain(parent)
		if chain.Len() <= q.Len() {
			continue
		}
		ck := chain.Key()
		if seenChain[ck] {
			continue
		}
		if _, decided := r.labels[ck]; decided {
			continue
		}
		if r.chains.CoveredBy(chain) {
			continue // a subpattern of a confirmed chain is already known frequent
		}
		seenChain[ck] = true
		out = append(out, chain)
	}
	return out
}

// greedyChain extends h by argmax bigram continuations until MaxLen or a
// dead end. Ties break toward the smaller symbol for determinism.
func (r *run) greedyChain(h pattern.Pattern) pattern.Pattern {
	chain := h.Clone()
	for chain.Len() < r.opts.MaxLen {
		last := chain[len(chain)-1]
		row := r.bigram[last]
		if len(row) == 0 {
			break
		}
		best := pattern.Symbol(-1)
		bestV := -1.0
		for y, v := range row {
			if v < r.minMatch {
				continue // a weak continuation would doom the whole chain
			}
			if v > bestV || (v == bestV && y < best) {
				best, bestV = y, v
			}
		}
		if best.IsEternal() {
			break
		}
		chain = pattern.Extend(chain, 0, best)
	}
	return chain
}

// generatingParent stars the last concrete symbol and trims.
func generatingParent(p pattern.Pattern) pattern.Pattern {
	q := p.Clone()
	for i := len(q) - 1; i >= 0; i-- {
		if !q[i].IsEternal() {
			q[i] = pattern.Eternal
			break
		}
	}
	return pattern.Trim(q)
}
