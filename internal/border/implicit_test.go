package border

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/match"
	"repro/internal/miner"
	"repro/internal/pattern"
)

// CollapseImplicit is the paper-verbatim form of Algorithm 4.3, kept as the
// reference Collapse is checked against: the ambiguous region is never
// materialized. It is described only by its two embracing borders — the
// lower border FQT (sample-frequent patterns, whose downward closure is
// accepted) and the upper border INFQT (the maximal ambiguous patterns) —
// and the probe layers are *generated* with Algorithm 4.4's Halfway
// construction (HalfwayLayer), halfway first, then quarterway, and so on,
// until the memory budget fills. Exact probe results collapse the borders:
// frequent probes advance the lower border, infrequent probes become
// exclusions that pull the ceiling down.
//
// Its lattice is the full sub-pattern closure — starring any subset of
// positions — so it equals Collapse's over a Phase 2 region only when the
// miner's space holds every subpattern of its members (MaxGap >= MaxLen-2).
// Where both apply it spends about as many scans, but it regenerates its
// layers after every scan: on a 2,048-pattern region it took about 100
// times Collapse's time, which is why the product runs Collapse only.
//
// Contract: lower must contain, in addition to the frequent border, every
// frequent 1-pattern — Algorithm 4.4 generates a layer only between a
// lower element and a ceiling element it is a subpattern of, so every
// region member needs a generator beneath it (its single symbols qualify,
// and they are exactly labeled by Phase 1).
//
// The returned Result's Frequent set is the downward closure of Border.
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
			layer := HalfwayLayer(s.lo, s.hi, cfg.MemBudget-len(batch), fresh)
			// The recursion descends through the (bounded) unfiltered layer;
			// the cap only delays coverage to later rounds, where the
			// top-level span regenerates with a fresh filter.
			full := HalfwayLayer(s.lo, s.hi, 4096, nil)
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
		for i, p := range batch {
			res.Exact[p.Key()] = values[i]
			if values[i] >= cfg.MinMatch {
				confirmed.Add(p)
				generators.Add(p)
				res.Frequent.Add(p)
			} else {
				// Pull the ceiling below the exclusion, lazily: isAmbiguous
				// skips every superpattern of an excluded pattern, and the
				// stored ceiling stays as the original geometry bound.
				excluded.Add(p)
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
	res.Frequent = Closure(res.Border)
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

// Closure materializes the downward closure of a border: every subpattern
// of its members, by repeated immediate-subpattern expansion.
func Closure(border *pattern.Set) *pattern.Set {
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
			if out.Add(sub) {
				queue = append(queue, sub)
			}
		}
	}
	return out
}

// buildRegion derives (lowerWithFloor, ceiling, explicitAmbiguous) from a
// monotone truth oracle over the subpattern closure of a top pattern, the
// way Phase 2 would: sample-frequent = truth shrunk by one "uncertainty"
// level, ambiguous = the band between.
func buildRegion(top pattern.Pattern, truthBorder *pattern.Set) (lower, ceiling, ambiguous *pattern.Set) {
	region := pattern.NewSet(top)
	var rec func(p pattern.Pattern)
	rec = func(p pattern.Pattern) {
		for _, q := range p.ImmediateSubpatterns() {
			if region.Add(q) {
				rec(q)
			}
		}
	}
	rec(top)

	frequent := pattern.NewSet()
	ambiguous = pattern.NewSet()
	for _, p := range region.Patterns() {
		switch {
		case truthBorder.CoveredBy(p) && p.K() <= 1:
			// Exactly-labeled frequent singletons (Phase 1).
			frequent.Add(p)
		case truthBorder.CoveredBy(p) && p.K() <= truthBorder.MinK():
			// Deep inside the frequent region: sample-confident.
			frequent.Add(p)
		default:
			ambiguous.Add(p)
		}
	}
	lower = pattern.Border(frequent)
	for _, p := range frequent.Patterns() {
		if p.K() == 1 {
			lower.Add(p)
		}
	}
	combined := frequent.Clone()
	combined.Union(ambiguous)
	ceiling = pattern.Border(combined)
	return lower, ceiling, ambiguous
}

func TestCollapseImplicitMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 25; trial++ {
		top := make(pattern.Pattern, 5)
		for i := range top {
			top[i] = pattern.Symbol(rng.Intn(4))
		}
		// Random monotone truth within the region.
		region := pattern.NewSet(top)
		var rec func(p pattern.Pattern)
		rec = func(p pattern.Pattern) {
			for _, q := range p.ImmediateSubpatterns() {
				if region.Add(q) {
					rec(q)
				}
			}
		}
		rec(top)
		members := region.Patterns()
		truthBorder := pattern.NewSet(members[rng.Intn(len(members))])
		if rng.Intn(2) == 0 {
			truthBorder.Add(members[rng.Intn(len(members))])
		}
		probe := func(ps []pattern.Pattern) ([]float64, error) {
			out := make([]float64, len(ps))
			for i, p := range ps {
				if truthBorder.CoveredBy(p) {
					out[i] = 1
				}
			}
			return out, nil
		}
		lower, ceiling, ambiguous := buildRegion(top, truthBorder)
		budget := 1 + rng.Intn(6)
		cfg := Config{MinMatch: 0.5, MemBudget: budget, Probe: probe}

		explicit, err := Collapse(cfg, lower, ambiguous)
		if err != nil {
			t.Fatal(err)
		}
		implicit, err := CollapseImplicit(cfg, lower, ceiling)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		label := fmt.Sprintf("trial %d budget %d", trial, budget)
		for _, p := range explicit.Border.Patterns() {
			if !implicit.Border.Contains(p) {
				t.Errorf("%s: implicit border missing %v", label, p)
			}
		}
		for _, p := range implicit.Border.Patterns() {
			if !explicit.Border.Contains(p) {
				t.Errorf("%s: implicit border extra %v", label, p)
			}
		}
	}
}

func TestCollapseImplicitEmptyRegion(t *testing.T) {
	probe := func(ps []pattern.Pattern) ([]float64, error) {
		t.Fatal("probe called with an empty region")
		return nil, nil
	}
	lower := pattern.NewSet(pattern.MustNew(0, 1))
	res, err := CollapseImplicit(Config{MinMatch: 0.5, MemBudget: 4, Probe: probe}, lower, lower.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scans != 0 {
		t.Errorf("Scans=%d", res.Scans)
	}
	if !res.Border.Contains(pattern.MustNew(0, 1)) {
		t.Errorf("border: %v", res.Border.Patterns())
	}
}

func TestClosure(t *testing.T) {
	border := pattern.NewSet(pattern.MustNew(0, 1, 2))
	closure := Closure(border)
	for _, want := range []pattern.Pattern{
		pattern.MustNew(0, 1, 2), pattern.MustNew(0, 1), pattern.MustNew(1, 2),
		pattern.MustNew(0, pattern.Eternal, 2),
		pattern.MustNew(0), pattern.MustNew(1), pattern.MustNew(2),
	} {
		if !closure.Contains(want) {
			t.Errorf("closure missing %v", want)
		}
	}
	if closure.Len() != 7 {
		t.Errorf("closure size %d: %v", closure.Len(), closure.Patterns())
	}
}

func TestCollapseImplicitValidation(t *testing.T) {
	if _, err := CollapseImplicit(Config{}, pattern.NewSet(), pattern.NewSet()); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestCollapseMatchesImplicitOnMinedRegions checks Collapse against the
// paper-verbatim reference on Phase 2 regions mined the way the pipeline
// mines them: exact symbol matches over a small noisy database, the
// level-wise sample miner's frequent/ambiguous split, and exact probes
// through miner.MatchDBValuer. MaxGap = MaxLen-2, so the miner's space holds
// every subpattern of its members and the two lattices coincide; the borders
// must then be equal at every budget. Scan counts are logged, not compared.
func TestCollapseMatchesImplicitOnMinedRegions(t *testing.T) {
	const (
		m        = 6
		alpha    = 0.15
		maxLen   = 4
		minMatch = 0.2
		delta    = 0.1
	)
	for _, seed := range []int64{19, 33} {
		rng := rand.New(rand.NewSource(seed))
		std, _, err := datagen.Protein(datagen.ProteinConfig{
			N: 80, M: m, MinLen: 10, MaxLen: 14,
			Motifs:    []pattern.Pattern{pattern.MustNew(0, 2, 4)},
			PlantProb: 0.6,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		db, err := datagen.ApplyUniformNoise(std, m, alpha, rng)
		if err != nil {
			t.Fatal(err)
		}
		c, err := compat.UniformNoise(m, alpha)
		if err != nil {
			t.Fatal(err)
		}
		// Phase 1: exact symbol matches; the sample is the first 60 sequences.
		acc := match.NewSymbolAccumulator(c)
		var sample [][]pattern.Symbol
		for i := 0; i < db.Len(); i++ {
			acc.Observe(db.Seq(i))
			if i < 60 {
				sample = append(sample, db.Seq(i))
			}
		}
		p2, err := miner.SampleChernoff(m, miner.MatchSampleValuer(c, sample), acc.Matches(db.Len()),
			minMatch, delta, len(sample), miner.Options{MaxLen: maxLen, MaxGap: maxLen - 2})
		if err != nil {
			t.Fatal(err)
		}
		// The reference's lower border is the FQT plus every frequent
		// 1-pattern; its upper border is the border of the whole region.
		lower := pattern.Border(p2.Frequent)
		p2.Frequent.ForEach(func(p pattern.Pattern) bool {
			if p.K() == 1 {
				lower.Add(p)
			}
			return true
		})
		region := p2.Frequent.Clone()
		region.Union(p2.Ambiguous)
		upper := pattern.Border(region)
		probe := miner.MatchDBValuer(db, c)
		for budget := 1; budget <= 20; budget++ {
			cfg := Config{MinMatch: minMatch, MemBudget: budget, Probe: probe}
			explicit, err := Collapse(cfg, p2.Frequent, p2.Ambiguous)
			if err != nil {
				t.Fatal(err)
			}
			implicit, err := CollapseImplicit(cfg, lower, upper)
			if err != nil {
				t.Fatal(err)
			}
			extra, missing := explicit.Border.Diff(implicit.Border), implicit.Border.Diff(explicit.Border)
			if extra.Len()+missing.Len() != 0 {
				t.Errorf("seed %d budget %d: Collapse's border has %v the reference lacks, and lacks %v",
					seed, budget, extra.Patterns(), missing.Patterns())
			}
			t.Logf("seed %d budget %d: %d ambiguous, border %d; scans %d Collapse, %d reference",
				seed, budget, p2.Ambiguous.Len(), explicit.Border.Len(), explicit.Scans, implicit.Scans)
		}
	}
}
