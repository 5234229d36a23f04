package border

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// CollapseImplicit is the paper-verbatim form of Algorithm 4.3: the
// ambiguous region is never materialized. It is described only by its two
// embracing borders — the lower border FQT (sample-frequent patterns, whose
// downward closure is accepted) and the upper border INFQT (the maximal
// ambiguous patterns) — and the probe layers are *generated* with Algorithm
// 4.4's Halfway construction (pattern.HalfwayLayer), halfway first, then
// quarterway, and so on, until the memory budget fills. Exact probe results
// collapse the borders: frequent probes advance the lower border, infrequent
// probes become exclusions that pull the ceiling down.
//
// Use this form when Phase 2's ambiguous region is too large to hold as an
// explicit set; with an explicit region, Collapse produces identical
// borders (the tests assert it) with simpler bookkeeping.
//
// Contract: lower must contain, in addition to the frequent border, every
// frequent 1-pattern — Algorithm 4.4 generates a layer only between a
// lower element and a ceiling element it is a subpattern of, so every
// region member needs a generator beneath it (its single symbols qualify,
// and they are exactly labeled by Phase 1).
//
// The returned Result's Frequent set holds only the region's *resolved
// members that were probed or border elements* plus the lower border's
// elements — the full frequent set is the downward closure of Border, which
// is implicit by design. Use Closure to materialize it if needed.
func CollapseImplicit(cfg Config, lower, upper *pattern.Set) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Frequent: lower.Clone(), // grows with confirmed probes
		Exact:    make(map[string]float64),
	}
	// confirmed: patterns known frequent (its downward closure is frequent),
	// kept border-pruned for fast coverage tests. generators additionally
	// retains every confirmed pattern (including the 1-pattern floor):
	// halfway generation needs a generator beneath every region member, and
	// border-pruning would drop low-level generators once larger patterns
	// are confirmed, leaving low-level members unreachable.
	confirmed := lower.Clone()
	generators := lower.Clone()
	// excluded: patterns known infrequent (their upward closure is out).
	excluded := pattern.NewSet()
	// ceiling: current upper border of the possibly-frequent region.
	ceiling := upper.Clone()

	// ambiguous membership: subpattern of some ceiling element, not covered
	// by a confirmed element, not a superpattern of an excluded element.
	isAmbiguous := func(p pattern.Pattern) bool {
		if confirmed.CoveredBy(p) {
			return false
		}
		if coversAny(excluded, p) {
			return false
		}
		return ceiling.CoveredBy(p)
	}

	// Each non-empty batch resolves at least one fresh region member (the
	// seen/isAmbiguous filters guarantee it), so the loop terminates after
	// at most |region| probes; an empty batch means nothing ambiguous is
	// generable and the region is resolved.
	for {
		if err := cfg.interrupted(); err != nil {
			return nil, err
		}
		// Generate probe layers between the confirmed border and the
		// ceiling: halfway first, then recursive halves, until the budget
		// fills (Algorithm 4.3's Layer[j] loop).
		batch := make([]pattern.Pattern, 0, cfg.MemBudget)
		seen := pattern.NewSet()
		addLayer := func(layer *pattern.Set) {
			for _, p := range layer.Patterns() {
				if len(batch) >= cfg.MemBudget {
					return
				}
				if seen.Contains(p) || !isAmbiguous(p) {
					continue
				}
				seen.Add(p)
				batch = append(batch, p)
			}
		}
		// Layer generation counts only still-ambiguous patterns toward the
		// budget, so resolved patterns cannot shadow unresolved siblings.
		fresh := func(p pattern.Pattern) bool {
			return !seen.Contains(p) && isAmbiguous(p)
		}
		type span struct{ lo, hi *pattern.Set }
		queue := []span{{generators, ceiling}}
		for len(queue) > 0 && len(batch) < cfg.MemBudget {
			s := queue[0]
			queue = queue[1:]
			layer := pattern.HalfwayLayerFiltered(s.lo, s.hi, cfg.MemBudget-len(batch), fresh)
			// The recursion descends through the (bounded) unfiltered layer;
			// the cap only delays coverage to later rounds, where the
			// top-level span regenerates with a fresh filter.
			full := pattern.HalfwayLayer(s.lo, s.hi, 4096)
			addLayer(layer)
			if full.Len() > 0 {
				queue = append(queue, span{s.lo, full}, span{full, s.hi})
			}
		}
		// The halfway construction yields nothing for adjacent levels;
		// finish by probing the remaining ambiguous ceiling and the
		// immediate extensions above the confirmed border.
		if len(batch) < cfg.MemBudget {
			addLayer(ceiling)
		}
		if len(batch) == 0 {
			// Nothing ambiguous is generable: the ceiling's members are all
			// resolved; remaining gaps are single-level and were covered by
			// the ceiling probe above.
			break
		}

		values, err := cfg.Probe(batch)
		if err != nil {
			return nil, err
		}
		if len(values) != len(batch) {
			return nil, fmt.Errorf("border: probe returned %d values for %d patterns", len(values), len(batch))
		}
		res.Scans++
		res.Probed += len(batch)
		cfg.Metrics.ProbeScan(len(batch))
		for i, p := range batch {
			cfg.Metrics.Observe(telemetry.ProbeLayers, int64(p.K()))
			res.Exact[p.Key()] = values[i]
			if values[i] >= cfg.MinMatch {
				confirmed.Add(p)
				generators.Add(p)
				res.Frequent.Add(p)
			} else {
				excluded.Add(p)
				// Pull the ceiling below the exclusion: ceiling elements at
				// or above p are replaced by their maximal subpatterns that
				// avoid p. Handled lazily through isAmbiguous; the stored
				// ceiling set stays as the original geometry bound.
			}
		}
		// Re-tighten the stored borders for faster coverage tests.
		confirmed = pattern.Border(confirmed)
	}
	res.Border = pattern.Border(res.Frequent)
	// The closure is not filtered by exclusions: a sample-accepted border
	// element keeps its whole downward closure even if a probe contradicted
	// one of its subpatterns (a confidence-δ event), matching Collapse's
	// treatment of sample-frequent patterns.
	res.Frequent = Closure(res.Border, nil)
	return res, nil
}

// coversAny reports whether p is a superpattern of some member of s.
func coversAny(s *pattern.Set, p pattern.Pattern) bool {
	found := false
	s.ForEach(func(q pattern.Pattern) bool {
		if q.IsSubpatternOf(p) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Closure materializes the downward closure of a border (every subpattern
// of its members, by repeated immediate-subpattern expansion), excluding
// nothing unless excluded is non-nil (members of excluded's upward closure
// are skipped — they cannot occur for a true Apriori border but guard
// against inconsistent inputs).
func Closure(border *pattern.Set, excluded *pattern.Set) *pattern.Set {
	out := pattern.NewSet()
	var queue []pattern.Pattern
	for _, p := range border.Patterns() {
		if out.Add(p) {
			queue = append(queue, p)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, sub := range p.ImmediateSubpatterns() {
			if excluded != nil && coversAny(excluded, sub) {
				continue
			}
			if out.Add(sub) {
				queue = append(queue, sub)
			}
		}
	}
	return out
}
