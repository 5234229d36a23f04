package miner

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/chernoff"
	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/support"
)

const (
	d1 = pattern.Symbol(0)
	d2 = pattern.Symbol(1)
	d3 = pattern.Symbol(2)
	d4 = pattern.Symbol(3)
	d5 = pattern.Symbol(4)
	et = pattern.Eternal
)

func fig4DB() *seqdb.MemDB {
	return seqdb.NewMemDB([][]pattern.Symbol{
		{d1, d2, d3, d1},
		{d4, d2, d1},
		{d3, d4, d2, d1},
		{d2, d2},
	})
}

// enumerateSpace lists every valid pattern over m symbols with total length
// at most maxLen and eternal runs at most maxGap — the brute-force mirror of
// the engine's search space.
func enumerateSpace(m, maxLen, maxGap int) []pattern.Pattern {
	var out []pattern.Pattern
	var rec func(cur pattern.Pattern, gapRun int)
	rec = func(cur pattern.Pattern, gapRun int) {
		if len(cur) > 0 && !cur[len(cur)-1].IsEternal() {
			out = append(out, cur.Clone())
		}
		if len(cur) >= maxLen {
			return
		}
		for d := 0; d < m; d++ {
			rec(append(cur, pattern.Symbol(d)), 0)
		}
		if len(cur) > 0 && gapRun < maxGap {
			rec(append(cur, et), gapRun+1)
		}
	}
	rec(nil, 0)
	return out
}

// bruteForceFrequent computes the exact frequent set by evaluating every
// pattern in the space directly.
func bruteForceFrequent(db *seqdb.MemDB, meas match.Measure, minMatch float64, m, maxLen, maxGap int) *pattern.Set {
	space := enumerateSpace(m, maxLen, maxGap)
	vals, err := match.DB(db, meas, space)
	if err != nil {
		panic(err)
	}
	s := pattern.NewSet()
	for i, p := range space {
		if vals[i] >= minMatch {
			s.Add(p)
		}
	}
	return s
}

func setsEqual(t *testing.T, got, want *pattern.Set, label string) {
	t.Helper()
	for _, p := range want.Patterns() {
		if !got.Contains(p) {
			t.Errorf("%s: missing %v", label, p)
		}
	}
	for _, p := range got.Patterns() {
		if !want.Contains(p) {
			t.Errorf("%s: extra %v", label, p)
		}
	}
}

func TestExhaustiveMatchesBruteForce(t *testing.T) {
	c := compat.Fig2()
	meas := match.NewMatch(c)
	for _, minMatch := range []float64{0.01, 0.05, 0.1, 0.3} {
		for _, opts := range []Options{
			{MaxLen: 3, MaxGap: 0},
			{MaxLen: 3, MaxGap: 1},
			{MaxLen: 4, MaxGap: 2},
		} {
			db := fig4DB()
			res, err := Exhaustive(5, DBValuer(db, meas), minMatch, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForceFrequent(fig4DB(), meas, minMatch, 5, opts.MaxLen, opts.MaxGap)
			setsEqual(t, res.Frequent, want,
				fmt.Sprintf("min_match=%v opts=%+v", minMatch, opts))
			if res.Truncated {
				t.Error("unexpected truncation")
			}
			// One scan per evaluated level.
			if db.Scans() != res.Scans {
				t.Errorf("Scans mismatch: db=%d result=%d", db.Scans(), res.Scans)
			}
		}
	}
}

func TestExhaustiveSupportMatchesBruteForce(t *testing.T) {
	meas := support.Support{}
	opts := Options{MaxLen: 4, MaxGap: 1}
	res, err := Exhaustive(5, DBValuer(fig4DB(), meas), 0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceFrequent(fig4DB(), meas, 0.5, 5, 4, 1)
	setsEqual(t, res.Frequent, want, "support model")
}

func TestExhaustiveFQTIsBorder(t *testing.T) {
	c := compat.Fig2()
	res, err := Exhaustive(5, DBValuer(fig4DB(), match.NewMatch(c)), 0.05, Options{MaxLen: 3, MaxGap: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := pattern.Border(res.Frequent)
	setsEqual(t, res.FQT, want, "FQT")
	// Every frequent pattern is covered by the border.
	for _, p := range res.Frequent.Patterns() {
		if !res.FQT.CoveredBy(p) {
			t.Errorf("frequent %v not covered by FQT", p)
		}
	}
}

func TestExhaustiveCandidateCounts(t *testing.T) {
	c := compat.Fig2()
	res, err := Exhaustive(5, DBValuer(fig4DB(), match.NewMatch(c)), 0.05, Options{MaxLen: 3, MaxGap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidatesPerLevel[0] != 5 {
		t.Errorf("level-1 candidates=%d, want 5 (=m)", res.CandidatesPerLevel[0])
	}
	if len(res.CandidatesPerLevel) != len(res.AlivePerLevel) {
		t.Error("per-level slices out of sync")
	}
	for k, alive := range res.AlivePerLevel {
		if alive > res.CandidatesPerLevel[k] {
			t.Errorf("level %d: alive %d > candidates %d", k+1, alive, res.CandidatesPerLevel[k])
		}
	}
}

func TestSpaceBoundsRespected(t *testing.T) {
	c := compat.Fig2()
	opts := Options{MaxLen: 3, MaxGap: 1}
	res, err := Exhaustive(5, DBValuer(fig4DB(), match.NewMatch(c)), 0.001, opts)
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *pattern.Set) {
		for _, p := range s.Patterns() {
			if p.Len() > opts.MaxLen {
				t.Errorf("%v exceeds MaxLen", p)
			}
			if maxGapRun(p) > opts.MaxGap {
				t.Errorf("%v exceeds MaxGap", p)
			}
		}
	}
	check(res.Frequent)
	check(res.Ambiguous)
}

func TestMaxKCapsLevels(t *testing.T) {
	c := compat.Fig2()
	res, err := Exhaustive(5, DBValuer(fig4DB(), match.NewMatch(c)), 0.001, Options{MaxLen: 4, MaxGap: 1, MaxK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CandidatesPerLevel) > 2 {
		t.Errorf("explored %d levels despite MaxK=2", len(res.CandidatesPerLevel))
	}
}

func TestTruncation(t *testing.T) {
	c := compat.Fig2()
	res, err := Exhaustive(5, DBValuer(fig4DB(), match.NewMatch(c)), 0.001,
		Options{MaxLen: 3, MaxGap: 1, MaxCandidatesPerLevel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("expected truncation with a 4-candidate cap")
	}
	for k, n := range res.CandidatesPerLevel {
		if k > 0 && n > 4 {
			t.Errorf("level %d evaluated %d candidates despite cap", k+1, n)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	v := Valuer(func(ps []pattern.Pattern) ([]float64, error) { return make([]float64, len(ps)), nil })
	cases := []Engine{
		{M: 0, Opts: Options{MaxLen: 3}, Value: v, Classify: alwaysFrequent},
		{M: 5, Opts: Options{MaxLen: 0}, Value: v, Classify: alwaysFrequent},
		{M: 5, Opts: Options{MaxLen: 3, MaxGap: -1}, Value: v, Classify: alwaysFrequent},
		{M: 5, Opts: Options{MaxLen: 3}, Value: nil, Classify: alwaysFrequent},
		{M: 5, Opts: Options{MaxLen: 3}, Value: v, Classify: nil},
	}
	for i := range cases {
		if _, err := cases[i].Run(); err == nil {
			t.Errorf("case %d: invalid engine accepted", i)
		}
	}
}

func alwaysFrequent(_ pattern.Pattern, _, _ float64) chernoff.Label { return chernoff.Frequent }

func TestValuerLengthMismatchDetected(t *testing.T) {
	e := &Engine{
		M:    3,
		Opts: Options{MaxLen: 2},
		Value: func(ps []pattern.Pattern) ([]float64, error) {
			return make([]float64, len(ps)+1), nil
		},
		Classify: alwaysFrequent,
	}
	if _, err := e.Run(); err == nil {
		t.Error("mismatched valuer output accepted")
	}
}

func TestSampleChernoffFullSampleIsExact(t *testing.T) {
	// With the sample being the entire database, sample matches equal true
	// matches; frequent∪ambiguous must cover the exact frequent set, and the
	// (deterministically labeled) frequent set must be a subset of it.
	c := compat.Fig2()
	db := fig4DB()
	var sample [][]pattern.Symbol
	if err := db.Scan(func(_ int, seq []pattern.Symbol) error {
		cp := make([]pattern.Symbol, len(seq))
		copy(cp, seq)
		sample = append(sample, cp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	symbolMatch, err := match.Symbols(db, c)
	if err != nil {
		t.Fatal(err)
	}
	const minMatch, delta = 0.05, 0.001
	opts := Options{MaxLen: 3, MaxGap: 1}
	res, err := SampleChernoff(5, MatchSampleValuer(c, sample), symbolMatch, minMatch, delta, len(sample), opts)
	if err != nil {
		t.Fatal(err)
	}
	truth := bruteForceFrequent(fig4DB(), match.NewMatch(c), minMatch, 5, 3, 1)

	alive := res.Frequent.Clone()
	alive.Union(res.Ambiguous)
	for _, p := range truth.Patterns() {
		if !alive.Contains(p) {
			t.Errorf("true frequent %v labeled infrequent", p)
		}
	}
	for _, p := range res.Frequent.Patterns() {
		if !truth.Contains(p) {
			t.Errorf("sample-frequent %v is not truly frequent", p)
		}
	}
	// Level 1 must have no ambiguous symbols (exact labeling).
	for d := 0; d < 5; d++ {
		p := pattern.Pattern{pattern.Symbol(d)}
		if res.Labels[p.Key()] == chernoff.Ambiguous {
			t.Errorf("symbol %v labeled ambiguous despite exact Phase-1 matches", p)
		}
	}
}

func TestSampleChernoffSpreadsRecorded(t *testing.T) {
	c := compat.Fig2()
	db := fig4DB()
	symbolMatch, err := match.Symbols(db, c)
	if err != nil {
		t.Fatal(err)
	}
	sample := [][]pattern.Symbol{{d1, d2, d3, d1}, {d4, d2, d1}}
	res, err := SampleChernoff(5, MatchSampleValuer(c, sample), symbolMatch, 0.05, 0.001, 2, Options{MaxLen: 2, MaxGap: 0})
	if err != nil {
		t.Fatal(err)
	}
	for key, spread := range res.Spreads {
		if spread < 0 || spread > 1 {
			t.Errorf("spread of %s = %v", key, spread)
		}
	}
	// A 2-pattern's spread is the min of its symbols' matches.
	p := pattern.MustNew(d1, d2)
	if got, ok := res.Spreads[p.Key()]; ok {
		want := math.Min(symbolMatch[d1], symbolMatch[d2])
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("spread(%v)=%v, want %v", p, got, want)
		}
	}
}

func TestSampleChernoffLabelMonotonicity(t *testing.T) {
	// After clamping, every frequent pattern's immediate subpatterns (in
	// space) must be frequent, and frequent∪ambiguous must be downward
	// closed — the property Phase 3 relies on.
	c := compat.Fig2()
	db := fig4DB()
	symbolMatch, err := match.Symbols(db, c)
	if err != nil {
		t.Fatal(err)
	}
	sample := [][]pattern.Symbol{{d1, d2, d3, d1}, {d4, d2, d1}, {d2, d2}}
	opts := Options{MaxLen: 3, MaxGap: 1}
	res, err := SampleChernoff(5, MatchSampleValuer(c, sample), symbolMatch, 0.05, 0.1, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	for key, label := range res.Labels {
		if label == chernoff.Infrequent {
			continue
		}
		p := mustParseKey(t, key)
		for _, sub := range p.ImmediateSubpatterns() {
			if maxGapRun(sub) > opts.MaxGap {
				continue
			}
			subLabel, ok := res.Labels[sub.Key()]
			if !ok {
				t.Errorf("alive pattern %v has unevaluated subpattern %v", p, sub)
				continue
			}
			if subLabel < label {
				t.Errorf("monotonicity violated: %v=%v but subpattern %v=%v", p, label, sub, subLabel)
			}
		}
	}
}

func TestParentKey(t *testing.T) {
	p := pattern.MustNew(d1, et, d3, et, d5)
	want := pattern.MustNew(d1, et, d3).Key()
	if got := parentKey(p); got != want {
		t.Errorf("parentKey=%q, want %q", got, want)
	}
	if got := parentKey(pattern.MustNew(d1)); got != "" {
		t.Errorf("parentKey of 1-pattern=%q, want empty", got)
	}
}

func TestMaxGapRun(t *testing.T) {
	cases := []struct {
		p    pattern.Pattern
		want int
	}{
		{pattern.MustNew(d1, d2), 0},
		{pattern.MustNew(d1, et, d2), 1},
		{pattern.MustNew(d1, et, et, d2, et, d3), 2},
	}
	for _, c := range cases {
		if got := maxGapRun(c.p); got != c.want {
			t.Errorf("maxGapRun(%v)=%d, want %d", c.p, got, c.want)
		}
	}
}

// mustParseKey reverses Pattern.Key for test assertions.
func mustParseKey(t *testing.T, key string) pattern.Pattern {
	t.Helper()
	p, err := pattern.ParseKey(key)
	if err != nil {
		t.Fatalf("bad key %q: %v", key, err)
	}
	return p
}

func TestGapBoundedSubpatternPruning(t *testing.T) {
	// The candidate q = d1 * d3 d4 has three immediate subpatterns: d3 d4,
	// d1 * d3, and d1 * * d4 (starring d3). The last has a gap run of 2:
	// with MaxGap=1 it lies outside the explored space and must be exempt
	// from the aliveness check; with MaxGap=2 it is in space, carries no
	// value, and must prune the candidate.
	values := map[string]float64{}
	for _, p := range []pattern.Pattern{
		pattern.MustNew(d1), pattern.MustNew(d3), pattern.MustNew(d4),
		pattern.MustNew(d1, et, d3), pattern.MustNew(d3, d4),
		pattern.MustNew(d1, et, d3, d4),
	} {
		values[p.Key()] = 1
	}
	valuer := func(ps []pattern.Pattern) ([]float64, error) {
		out := make([]float64, len(ps))
		for i, p := range ps {
			out[i] = values[p.Key()]
		}
		return out, nil
	}
	q := pattern.MustNew(d1, et, d3, d4)

	res, err := Exhaustive(5, valuer, 0.5, Options{MaxLen: 4, MaxGap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Frequent.Contains(q) {
		t.Error("gap-exempt pruning broken: d1 * d3 d4 not mined at MaxGap=1")
	}

	res2, err := Exhaustive(5, valuer, 0.5, Options{MaxLen: 4, MaxGap: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Frequent.Contains(q) {
		t.Error("in-space infrequent subpattern d1 * * d4 did not prune the candidate at MaxGap=2")
	}
}
