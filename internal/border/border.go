// Package border implements Phase 3 of the paper's algorithm: collapsing
// the gap between the two borders that embrace the ambiguous patterns, so
// that the exact border of frequent patterns is located in a minimal number
// of full database scans (Algorithm 4.3).
//
// Phase 2 hands over the explicitly enumerated ambiguous region (the paper
// generates layer members on the fly with Algorithm 4.4 — implemented and
// tested as pattern.Halfway — but with the region already enumerated the
// same probe layers can be picked directly from it, with identical scan
// behavior and simpler memory accounting). Each iteration fills a memory
// budget of counters with the ambiguous patterns of highest collapsing
// power — the halfway lattice level between the region's floor and ceiling,
// then the quarterway levels, and so on — performs one scan to obtain their
// exact matches, and propagates the outcomes across the remaining region
// with the Apriori property: a frequent probe confirms all of its ambiguous
// subpatterns, an infrequent probe kills all of its ambiguous superpatterns.
package border

import (
	"context"
	"fmt"

	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// Config parameterizes a finalization run.
type Config struct {
	// MinMatch is the user's threshold; probes at or above it are frequent.
	MinMatch float64
	// MemBudget is the maximum number of pattern counters held per scan
	// (the paper's "until the memory is filled up"). Must be >= 1.
	MemBudget int
	// Probe computes exact database matches for a batch of patterns at the
	// cost of one full scan (e.g. miner.MatchDBValuer).
	Probe miner.Valuer
	// Ctx, when non-nil, is checked between probe scans; a cancelled run
	// returns an error wrapping Ctx.Err(). Pair it with a context-aware
	// Probe (miner.ProbeValuer) so cancellation also lands mid-scan, within
	// one sequence.
	Ctx context.Context
	// Metrics, when non-nil, receives probe telemetry (probe scans, batch
	// sizes, probed layer choices). Nil disables collection.
	Metrics *telemetry.Metrics
	// AfterScan, when non-nil, observes the loop's live state after every
	// completed probe scan — the checkpoint/progress hook. The state's sets
	// and map are the loop's own (the callback must copy anything it
	// retains); a non-nil error aborts finalization with that error.
	AfterScan func(*State) error
}

// interrupted returns a wrapped cancellation error if cfg.Ctx is done.
func (c Config) interrupted() error {
	if c.Ctx == nil {
		return nil
	}
	if err := c.Ctx.Err(); err != nil {
		return fmt.Errorf("border: interrupted between probe scans: %w", err)
	}
	return nil
}

func (c Config) validate() error {
	if c.MinMatch < 0 || c.MinMatch > 1 {
		return fmt.Errorf("border: MinMatch %v outside [0,1]", c.MinMatch)
	}
	if c.MemBudget < 1 {
		return fmt.Errorf("border: MemBudget %d < 1", c.MemBudget)
	}
	if c.Probe == nil {
		return fmt.Errorf("border: Probe is required")
	}
	return nil
}

// Result reports a finalization run.
type Result struct {
	// Frequent is the final frequent set: the sample-frequent patterns plus
	// every ambiguous pattern confirmed against the database.
	Frequent *pattern.Set
	// Border is the border of Frequent — the algorithm's output (FQT).
	Border *pattern.Set
	// Scans is the number of full database scans spent probing.
	Scans int
	// Probed is the number of patterns counted against the database.
	Probed int
	// Exact records the exact database match of every probed pattern.
	Exact map[string]float64
}

// Collapse finalizes the border via border collapsing. sampleFrequent holds
// Phase 2's frequent patterns (accepted at confidence 1-δ without
// re-probing, per the paper); ambiguous holds the patterns needing exact
// evaluation. Neither input set is modified.
func Collapse(cfg Config, sampleFrequent, ambiguous *pattern.Set) (*Result, error) {
	return Finalize(cfg, sampleFrequent, ambiguous, PickHalfway)
}

// PickFunc selects up to budget pending patterns to probe in the next scan.
// It must return at least one pattern while any are pending.
type PickFunc func(pending *pattern.Set, budget int) []pattern.Pattern

// State is a resumable snapshot of the probe-and-propagate loop: the
// frequent set as propagated so far, the still-unresolved region, the exact
// matches measured, and the scans spent. FinalizeState takes ownership of
// the sets and mutates them in place; build a State from checkpoint data to
// continue an interrupted finalization without repeating any probe scan.
type State struct {
	// Frequent holds the sample-frequent patterns plus every probe-confirmed
	// and Apriori-propagated pattern so far.
	Frequent *pattern.Set
	// Pending is the still-unresolved ambiguous region.
	Pending *pattern.Set
	// Exact records the measured database match of every probed pattern.
	Exact map[string]float64
	// Scans and Probed count completed probe scans and probed patterns.
	Scans  int
	Probed int
}

// NewState builds the initial loop state from Phase 2's outputs. Neither
// input set is modified.
func NewState(sampleFrequent, ambiguous *pattern.Set) *State {
	return &State{
		Frequent: sampleFrequent.Clone(),
		Pending:  ambiguous.Clone(),
		Exact:    make(map[string]float64),
	}
}

// Finalize runs the probe-and-propagate loop with a pluggable probe-order
// strategy (halfway layers for Collapse, bottom-up for the level-wise
// baseline in package levelwise). The strategy only affects how many scans
// the loop needs — the resulting frequent set is always exact.
func Finalize(cfg Config, sampleFrequent, ambiguous *pattern.Set, pick PickFunc) (*Result, error) {
	return FinalizeState(cfg, NewState(sampleFrequent, ambiguous), pick)
}

// FinalizeState runs the probe-and-propagate loop from an explicit state —
// either a fresh one (NewState) or one rebuilt from a checkpoint, in which
// case every scan the checkpoint recorded is skipped. The state is mutated
// in place as the loop progresses, so cfg.AfterScan observes live progress;
// the final Result is assembled from it. Because the pick strategy is a
// deterministic function of the pending set, a resumed loop performs
// exactly the scans the uninterrupted loop had left and lands on an
// identical frequent set.
func FinalizeState(cfg Config, st *State, pick PickFunc) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if st == nil || st.Frequent == nil || st.Pending == nil || st.Exact == nil {
		return nil, fmt.Errorf("border: incomplete state")
	}
	idx := buildLevelIndex(st.Pending)
	for st.Pending.Len() > 0 {
		if err := cfg.interrupted(); err != nil {
			return nil, err
		}
		batch := pick(st.Pending, cfg.MemBudget)
		if len(batch) == 0 {
			return nil, fmt.Errorf("border: probe strategy returned no patterns with %d pending", st.Pending.Len())
		}
		values, err := cfg.Probe(batch)
		if err != nil {
			return nil, err
		}
		if len(values) != len(batch) {
			return nil, fmt.Errorf("border: probe returned %d values for %d patterns", len(values), len(batch))
		}
		st.Scans++
		st.Probed += len(batch)
		cfg.Metrics.ProbeScan(len(batch))
		for i, p := range batch {
			cfg.Metrics.ProbeLayer(p.K())
			st.Exact[p.Key()] = values[i]
			st.Pending.Remove(p)
			idx.remove(p)
			if values[i] >= cfg.MinMatch {
				st.Frequent.Add(p)
				propagateFrequent(p, st.Pending, idx, st.Frequent)
			} else {
				propagateInfrequent(p, st.Pending, idx)
			}
		}
		if cfg.AfterScan != nil {
			if err := cfg.AfterScan(st); err != nil {
				return nil, err
			}
		}
	}
	res := &Result{
		Frequent: st.Frequent,
		Exact:    st.Exact,
		Scans:    st.Scans,
		Probed:   st.Probed,
	}
	res.Border = pattern.Border(res.Frequent)
	return res, nil
}

// levelIndex buckets the pending region by lattice level K, so Apriori
// propagation visits only the levels a probe outcome can actually reach.
// Distinct trimmed patterns related by ⊑ always differ in K (a subpattern
// with the same non-eternal count would be position-wise equal), so a
// frequent probe at level k can only confirm pending patterns at levels
// below k, and an infrequent one can only kill levels above k. The old
// propagation rescanned the entire pending set for every probe in the batch
// — O(batch × pending) subpattern tests per scan; the index reduces that to
// the reachable levels, which on wide ambiguous regions is most of the work.
//
// The index is internal to the loop: it is rebuilt from Pending at
// FinalizeState entry (State's public checkpoint shape is unchanged) and
// maintained alongside every Pending mutation.
type levelIndex struct {
	levels map[int]*pattern.Set
	lo, hi int // bounds of the initial region; levels only ever empty out
}

// buildLevelIndex buckets pending by K.
func buildLevelIndex(pending *pattern.Set) *levelIndex {
	idx := &levelIndex{levels: make(map[int]*pattern.Set)}
	pending.ForEach(func(p pattern.Pattern) bool {
		k := p.K()
		s := idx.levels[k]
		if s == nil {
			s = pattern.NewSet()
			idx.levels[k] = s
		}
		s.Add(p)
		if len(idx.levels) == 1 && s.Len() == 1 {
			idx.lo, idx.hi = k, k
		} else {
			if k < idx.lo {
				idx.lo = k
			}
			if k > idx.hi {
				idx.hi = k
			}
		}
		return true
	})
	return idx
}

// remove drops p from its level bucket.
func (ix *levelIndex) remove(p pattern.Pattern) {
	k := p.K()
	if s := ix.levels[k]; s != nil {
		s.Remove(p)
		if s.Len() == 0 {
			delete(ix.levels, k)
		}
	}
}

// propagateFrequent moves every pending subpattern of p to the frequent set
// (Apriori: subpatterns of a frequent pattern are frequent). Only levels
// below K(p) can hold subpatterns of p.
func propagateFrequent(p pattern.Pattern, pending *pattern.Set, ix *levelIndex, frequent *pattern.Set) {
	var hits []pattern.Pattern
	for l := ix.lo; l < p.K(); l++ {
		s := ix.levels[l]
		if s == nil {
			continue
		}
		s.ForEach(func(q pattern.Pattern) bool {
			if q.IsSubpatternOf(p) {
				hits = append(hits, q)
			}
			return true
		})
	}
	for _, q := range hits {
		pending.Remove(q)
		ix.remove(q)
		frequent.Add(q)
	}
}

// propagateInfrequent drops every pending superpattern of p (Apriori:
// superpatterns of an infrequent pattern are infrequent). Only levels above
// K(p) can hold superpatterns of p.
func propagateInfrequent(p pattern.Pattern, pending *pattern.Set, ix *levelIndex) {
	var hits []pattern.Pattern
	for l := p.K() + 1; l <= ix.hi; l++ {
		s := ix.levels[l]
		if s == nil {
			continue
		}
		s.ForEach(func(q pattern.Pattern) bool {
			if p.IsSubpatternOf(q) {
				hits = append(hits, q)
			}
			return true
		})
	}
	for _, q := range hits {
		pending.Remove(q)
		ix.remove(q)
	}
}

// PickHalfway selects up to budget pending patterns in the halfway-layer
// order of Algorithm 4.3: the lattice levels of the pending region are
// visited in binary-subdivision order (halfway level first, then the two
// quarterway levels, then the 1/8 levels, ...), which maximizes the expected
// collapsing power of every counter held in memory.
func PickHalfway(pending *pattern.Set, budget int) []pattern.Pattern {
	byLevel := groupByLevel(pending)
	lo, hi := pending.MinK(), pending.MaxK()
	var out []pattern.Pattern
	for _, level := range subdivisionOrder(lo, hi) {
		for _, p := range byLevel[level] {
			if len(out) >= budget {
				return out
			}
			out = append(out, p)
		}
	}
	return out
}

// groupByLevel buckets a set's members by K, each bucket key-sorted (the
// set's Patterns order) for determinism.
func groupByLevel(s *pattern.Set) map[int][]pattern.Pattern {
	byLevel := make(map[int][]pattern.Pattern)
	for _, p := range s.Patterns() {
		k := p.K()
		byLevel[k] = append(byLevel[k], p)
	}
	return byLevel
}

// subdivisionOrder lists the levels of [lo, hi] in binary-subdivision order:
// the midpoint of the full interval first, then midpoints of the two halves,
// and so on — Algorithm 4.3's halfway/quarterway/… layer schedule.
func subdivisionOrder(lo, hi int) []int {
	if lo > hi {
		return nil
	}
	type interval struct{ a, b int }
	queue := []interval{{lo, hi}}
	seen := make(map[int]bool)
	var out []int
	for len(queue) > 0 {
		iv := queue[0]
		queue = queue[1:]
		if iv.a > iv.b {
			continue
		}
		mid := (iv.a + iv.b + 1) / 2 // ⌈(a+b)/2⌉, matching Algorithm 4.4
		if !seen[mid] {
			seen[mid] = true
			out = append(out, mid)
		}
		if iv.a <= mid-1 {
			queue = append(queue, interval{iv.a, mid - 1})
		}
		if mid+1 <= iv.b {
			queue = append(queue, interval{mid + 1, iv.b})
		}
	}
	// Safety: ensure completeness even if subdivision missed a level.
	for l := lo; l <= hi; l++ {
		if !seen[l] {
			out = append(out, l)
		}
	}
	return out
}
