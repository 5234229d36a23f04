package border

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
)

// Halfway implements Algorithm 4.4 of the paper for one pair of border
// elements: given p1, a subpattern of p2, it returns the patterns with
// ⌈(K(p1)+K(p2))/2⌉ non-eternal symbols that are superpatterns of p1 and
// subpatterns of p2. These are the patterns with maximal collapsing power
// between the two borders. It generates the probe layers of the test-only
// reference CollapseImplicit; Collapse picks the same layers from the
// materialized region instead (PickHalfway).
//
// The enumeration walks the subsets of p2's non-eternal positions; limit
// (if > 0) caps the number of returned patterns to keep the worst-case
// combinatorics bounded — the collapsing loop fills a memory budget anyway,
// so a deterministic prefix of the layer is sufficient. accept, when
// non-nil, filters the patterns before they count toward limit, so a caller
// probing an implicit region can skip already-resolved patterns without them
// consuming the generation budget.
func Halfway(p1, p2 pattern.Pattern, limit int, accept func(pattern.Pattern) bool) []pattern.Pattern {
	if !p1.IsSubpatternOf(p2) {
		return nil
	}
	k1, k2 := p1.K(), p2.K()
	target := (k1 + k2 + 1) / 2
	if target <= k1 || target >= k2 {
		// Adjacent or equal levels: there is no strictly-between layer.
		return nil
	}
	positions := make([]int, 0, k2)
	for i, s := range p2 {
		if !s.IsEternal() {
			positions = append(positions, i)
		}
	}
	seen := make(map[string]struct{})
	var out []pattern.Pattern
	chosen := make([]int, 0, target)
	var rec func(start int)
	rec = func(start int) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if len(chosen) == target {
			cand := make(pattern.Pattern, len(p2))
			for i := range cand {
				cand[i] = pattern.Eternal
			}
			for _, pos := range chosen {
				cand[pos] = p2[pos]
			}
			trimmed := pattern.Trim(cand)
			if trimmed == nil || trimmed.K() != target {
				return
			}
			if !p1.IsSubpatternOf(trimmed) {
				return
			}
			key := trimmed.Key()
			if _, ok := seen[key]; ok {
				return
			}
			seen[key] = struct{}{}
			if accept != nil && !accept(trimmed) {
				return
			}
			out = append(out, trimmed)
			return
		}
		// Not enough remaining positions to reach the target size.
		if len(positions)-start < target-len(chosen) {
			return
		}
		for i := start; i < len(positions); i++ {
			chosen = append(chosen, positions[i])
			rec(i + 1)
			chosen = chosen[:len(chosen)-1]
			if limit > 0 && len(out) >= limit {
				return
			}
		}
	}
	rec(0)
	return out
}

// HalfwayLayer implements the layer computation of Algorithm 4.3: for every
// pair (p1 ∈ lower, p2 ∈ upper) with p1 a subpattern of p2, the halfway
// patterns are collected into one deduplicated layer. limit (if > 0) caps the
// total number of patterns produced; accept filters as in Halfway.
func HalfwayLayer(lower, upper *pattern.Set, limit int, accept func(pattern.Pattern) bool) *pattern.Set {
	layer := pattern.NewSet()
	for _, p1 := range lower.Patterns() {
		for _, p2 := range upper.Patterns() {
			if limit > 0 && layer.Len() >= limit {
				return layer
			}
			rem := 0
			if limit > 0 {
				rem = limit - layer.Len()
			}
			for _, h := range Halfway(p1, p2, rem, accept) {
				layer.Add(h)
			}
		}
	}
	return layer
}

func TestHalfwayFig6Example(t *testing.T) {
	// Figure 6(b): lower border {d1}, upper border {d1 d2 d3 d4 d5}; the
	// halfway layer is the six 3-patterns d1d2d3, d1d2*d4, d1d2**d5,
	// d1*d3d4, d1*d3*d5, d1**d4d5.
	lower := pattern.MustNew(d1)
	upper := pattern.MustNew(d1, d2, d3, d4, d5)
	got := pattern.NewSet(Halfway(lower, upper, 0, nil)...)
	want := pattern.NewSet(
		pattern.MustNew(d1, d2, d3),
		pattern.MustNew(d1, d2, et, d4),
		pattern.MustNew(d1, d2, et, et, d5),
		pattern.MustNew(d1, et, d3, d4),
		pattern.MustNew(d1, et, d3, et, d5),
		pattern.MustNew(d1, et, et, d4, d5),
	)
	if got.Len() != want.Len() {
		t.Fatalf("halfway layer size %d, want %d: %v", got.Len(), want.Len(), got.Patterns())
	}
	for _, w := range want.Patterns() {
		if !got.Contains(w) {
			t.Errorf("halfway layer missing %v", w)
		}
	}
}

func TestHalfwayAdjacentLevels(t *testing.T) {
	if got := Halfway(pattern.MustNew(d1), pattern.MustNew(d1, d2), 0, nil); got != nil {
		t.Errorf("no strictly-between layer exists, got %v", got)
	}
	if got := Halfway(pattern.MustNew(d1, d2), pattern.MustNew(d1, d2), 0, nil); got != nil {
		t.Errorf("equal patterns have no halfway, got %v", got)
	}
}

func TestHalfwayNotSubpattern(t *testing.T) {
	if got := Halfway(pattern.MustNew(d5), pattern.MustNew(d1, d2, d3, d4), 0, nil); got != nil {
		t.Errorf("p1 not a subpattern of p2: want nil, got %v", got)
	}
}

func TestHalfwayLimit(t *testing.T) {
	lower := pattern.MustNew(d1)
	upper := pattern.MustNew(d1, d2, d3, d4, d5)
	got := Halfway(lower, upper, 2, nil)
	if len(got) != 2 {
		t.Errorf("limit=2: got %d patterns", len(got))
	}
}

func TestHalfwayLayerSets(t *testing.T) {
	lower := pattern.NewSet(pattern.MustNew(d1))
	upper := pattern.NewSet(pattern.MustNew(d1, d2, d3, d4, d5))
	layer := HalfwayLayer(lower, upper, 0, nil)
	if layer.Len() != 6 {
		t.Errorf("layer size %d, want 6", layer.Len())
	}
	capped := HalfwayLayer(lower, upper, 3, nil)
	if capped.Len() != 3 {
		t.Errorf("capped layer size %d, want 3", capped.Len())
	}
}

func TestQuickHalfwayInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		// A random valid pattern over 5 symbols with up to 9 positions.
		p2 := make(pattern.Pattern, 1+r.Intn(9))
		for i := range p2 {
			if i > 0 && i < len(p2)-1 && r.Intn(3) == 0 {
				p2[i] = pattern.Eternal
			} else {
				p2[i] = pattern.Symbol(r.Intn(5))
			}
		}
		// Derive a random subpattern p1 of p2 by starring positions and trimming.
		p1 := p2.Clone()
		for i := range p1 {
			if r.Intn(2) == 0 {
				p1[i] = pattern.Eternal
			}
		}
		p1 = pattern.Trim(p1)
		if p1 == nil {
			return true
		}
		target := (p1.K() + p2.K() + 1) / 2
		for _, h := range Halfway(p1, p2, 50, nil) {
			if h.K() != target {
				return false
			}
			if !p1.IsSubpatternOf(h) || !h.IsSubpatternOf(p2) {
				return false
			}
			if err := h.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
