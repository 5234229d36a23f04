package growth_test

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/chernoff"
	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/growth"
	"repro/internal/match"
	"repro/internal/miner"
	"repro/internal/oracle"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// levelwise runs the breadth-first engine — the reference the growth engine
// must replicate bit for bit.
func levelwise(t *testing.T, c compat.Source, sample [][]pattern.Symbol, symbolMatch []float64, minMatch, delta float64, maxLen, maxGap int) *miner.Result {
	t.Helper()
	valuer, inc := miner.IncrementalSampleValuer(c, sample, miner.IncrementalConfig{})
	defer inc.Release()
	res, err := miner.SampleChernoff(c.Size(), valuer, symbolMatch, minMatch, delta, len(sample),
		miner.Options{MaxLen: maxLen, MaxGap: maxGap})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sortedKeys(s *pattern.Set) []string {
	keys := make([]string, 0, s.Len())
	for _, p := range s.Patterns() {
		keys = append(keys, p.Key())
	}
	sort.Strings(keys)
	return keys
}

// assertEquivalent checks every growth-vs-levelwise equality the engine
// contract promises: identical sets and borders, identical labels, spreads
// and level counts, and bit-identical values for every key the growth engine
// valued (bound-pruned keys are absent from growth's Values and must be
// labeled infrequent by both engines).
func assertEquivalent(t *testing.T, want, got *miner.Result) {
	t.Helper()
	for name, pair := range map[string][2]*pattern.Set{
		"Frequent":  {want.Frequent, got.Frequent},
		"Ambiguous": {want.Ambiguous, got.Ambiguous},
	} {
		if w, g := sortedKeys(pair[0]), sortedKeys(pair[1]); !reflect.DeepEqual(w, g) {
			t.Fatalf("%s differs:\nlevelwise: %v\ngrowth:    %v", name, w, g)
		}
	}
	if !reflect.DeepEqual(want.Labels, got.Labels) {
		t.Fatalf("Labels differ:\nlevelwise: %v\ngrowth:    %v", want.Labels, got.Labels)
	}
	if !reflect.DeepEqual(want.Spreads, got.Spreads) {
		t.Fatalf("Spreads differ:\nlevelwise: %v\ngrowth:    %v", want.Spreads, got.Spreads)
	}
	if !reflect.DeepEqual(want.CandidatesPerLevel, got.CandidatesPerLevel) {
		t.Fatalf("CandidatesPerLevel: levelwise %v, growth %v", want.CandidatesPerLevel, got.CandidatesPerLevel)
	}
	if !reflect.DeepEqual(want.AlivePerLevel, got.AlivePerLevel) {
		t.Fatalf("AlivePerLevel: levelwise %v, growth %v", want.AlivePerLevel, got.AlivePerLevel)
	}
	for key, gv := range got.Values {
		wv, ok := want.Values[key]
		if !ok {
			t.Fatalf("growth valued %q which levelwise never enumerated", key)
		}
		if gv != wv {
			t.Fatalf("value of %q: levelwise %v, growth %v", key, wv, gv)
		}
	}
	for key := range want.Values {
		if _, ok := got.Values[key]; !ok && got.Labels[key] != chernoff.Infrequent {
			t.Fatalf("growth skipped valuing %q but labeled it %v", key, got.Labels[key])
		}
	}
	if got.Scans != 0 {
		t.Fatalf("growth Scans = %d, want 0 (the DFS never batches valuer calls)", got.Scans)
	}
	if got.Truncated {
		t.Fatal("growth reported Truncated")
	}
}

// symbolMatches computes each symbol's exact sample match — standing in for
// Phase 1's full-database matches so the exact level-1 path is exercised.
func symbolMatches(t *testing.T, c compat.Source, sample [][]pattern.Symbol) []float64 {
	t.Helper()
	pj := match.NewProjector(c, sample, 0)
	out := make([]float64, c.Size())
	for d := range out {
		v, err := pj.Value(pattern.Pattern{pattern.Symbol(d)})
		if err != nil {
			t.Fatal(err)
		}
		out[d] = v
	}
	return out
}

// TestGrowthMatchesLevelwise sweeps the oracle's generated case corpus —
// every matrix family, gap/length regime, and threshold band — and demands
// full result equivalence, with and without exact symbol matches.
func TestGrowthMatchesLevelwise(t *testing.T) {
	for seed := int64(1); seed <= 32; seed++ {
		cs := oracle.GenCase(seed)
		for _, exact := range []bool{false, true} {
			var sm []float64
			if exact {
				sm = symbolMatches(t, cs.C, cs.DB)
			}
			want := levelwise(t, cs.C, cs.DB, sm, cs.MinMatch, cs.Delta, cs.MaxLen, cs.MaxGap)
			got, err := growth.Mine(cs.C, cs.DB, growth.Config{
				SymbolMatch: sm,
				MinMatch:    cs.MinMatch,
				Delta:       cs.Delta,
				MaxLen:      cs.MaxLen,
				MaxGap:      cs.MaxGap,
			})
			if err != nil {
				t.Fatalf("seed %d exact=%v: %v", seed, exact, err)
			}
			func() {
				defer func() {
					if t.Failed() {
						t.Logf("seed %d exact=%v", seed, exact)
					}
				}()
				assertEquivalent(t, want, got)
			}()
		}
	}
}

// TestGrowthWorkerBitIdentity demands the whole result — values included —
// is reflect.DeepEqual across worker counts, and equivalent to the level-wise
// engine's.
func TestGrowthWorkerBitIdentity(t *testing.T) {
	for seed := int64(3); seed <= 11; seed += 2 {
		cs := oracle.GenCase(seed)
		sm := symbolMatches(t, cs.C, cs.DB)
		cfg := growth.Config{
			SymbolMatch: sm,
			MinMatch:    cs.MinMatch,
			Delta:       cs.Delta,
			MaxLen:      cs.MaxLen,
			MaxGap:      cs.MaxGap,
		}
		base, err := growth.Mine(cs.C, cs.DB, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 5, -1} {
			wcfg := cfg
			wcfg.Workers = workers
			got, err := growth.Mine(cs.C, cs.DB, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			got.LevelMillis = base.LevelMillis
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("seed %d: workers=%d result differs from sequential", seed, workers)
			}
		}
		assertEquivalent(t, levelwise(t, cs.C, cs.DB, sm, cs.MinMatch, cs.Delta, cs.MaxLen, cs.MaxGap), base)
	}
}

// TestGrowthTightBudget squeezes the per-worker projection cache down to
// nothing and checks the cache is invisible to the results: a projection is
// the same extension chain whether it comes out of the cache or is rebuilt,
// so every budget yields the identical result, just slower.
func TestGrowthTightBudget(t *testing.T) {
	cs := oracle.GenCase(5)
	sm := symbolMatches(t, cs.C, cs.DB)
	cfg := growth.Config{
		SymbolMatch: sm,
		MinMatch:    cs.MinMatch,
		Delta:       cs.Delta,
		MaxLen:      cs.MaxLen,
		MaxGap:      cs.MaxGap,
	}
	want, err := growth.Mine(cs.C, cs.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 200, 2000} {
		bcfg := cfg
		bcfg.Budget = budget
		bcfg.Workers = 2
		got, err := growth.Mine(cs.C, cs.DB, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Labels, got.Labels) {
			t.Fatalf("budget %d: labels differ", budget)
		}
		if !reflect.DeepEqual(want.Values, got.Values) {
			t.Fatalf("budget %d: values differ", budget)
		}
		if !reflect.DeepEqual(want.CandidatesPerLevel, got.CandidatesPerLevel) {
			t.Fatalf("budget %d: candidate counts differ", budget)
		}
	}
}

// TestGrowthValidation covers the constructor errors.
func TestGrowthValidation(t *testing.T) {
	c := compat.Identity(3)
	sample := [][]pattern.Symbol{{0, 1, 2}}
	base := growth.Config{MinMatch: 0.5, Delta: 0.05, MaxLen: 3, MaxGap: 1}
	cases := []struct {
		name   string
		sample [][]pattern.Symbol
		mut    func(*growth.Config)
	}{
		{"empty sample", nil, func(*growth.Config) {}},
		{"zero MaxLen", sample, func(c *growth.Config) { c.MaxLen = 0 }},
		{"negative MaxGap", sample, func(c *growth.Config) { c.MaxGap = -1 }},
		{"bad delta", sample, func(c *growth.Config) { c.Delta = 1.5 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := growth.Mine(c, tc.sample, cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestGrowthDeterministicRepeat re-runs one parallel configuration many
// times; any scheduling sensitivity shows up as a flaky mismatch.
func TestGrowthDeterministicRepeat(t *testing.T) {
	cs := oracle.GenCase(9)
	cfg := growth.Config{
		MinMatch: cs.MinMatch,
		Delta:    cs.Delta,
		MaxLen:   cs.MaxLen,
		MaxGap:   cs.MaxGap,
		Workers:  4,
		Budget:   4096, // tight enough to deny some projections
	}
	base, err := growth.Mine(cs.C, cs.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got, err := growth.Mine(cs.C, cs.DB, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("run %d differs from first run", i)
		}
	}
}

// longSample is a planted-motif sample of long sequences (mean length 50
// over 6 symbols), whose projections are large enough for a small budget to
// bind.
func longSample(t *testing.T) (compat.Source, [][]pattern.Symbol) {
	t.Helper()
	rng := rand.New(rand.NewSource(8))
	std, _, err := datagen.Protein(datagen.ProteinConfig{
		N: 60, M: 6, MinLen: 40, MaxLen: 60,
		Motifs:    []pattern.Pattern{pattern.MustNew(0, 1, 2, 3)},
		PlantProb: 0.6,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := datagen.ApplyUniformNoise(std, 6, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compat.UniformNoise(6, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sample := make([][]pattern.Symbol, noisy.Len())
	for i := range sample {
		sample[i] = noisy.Seq(i)
	}
	return c, sample
}

// TestGrowthSharedBudget: the budget bounds the projections cached by the
// whole engine, not by each worker — the engine-wide peak stays within it at
// every worker count, while an unlimited run caches more than it, so the
// bound is what keeps the peak down.
func TestGrowthSharedBudget(t *testing.T) {
	c, sample := longSample(t)
	cfg := growth.Config{MinMatch: 0.3, Delta: 0.05, MaxLen: 6, MaxGap: 1}
	peak := func(budget int64, workers int) (*miner.Result, int64) {
		m := &telemetry.Metrics{}
		bcfg := cfg
		bcfg.Budget, bcfg.Workers, bcfg.Metrics = budget, workers, m
		res, err := growth.Mine(c, sample, bcfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, m.Snapshot().GrowthPeakBytes
	}
	want, unlimited := peak(-1, 1)
	const budget = 256 << 10
	if unlimited <= budget {
		t.Fatalf("unlimited run caches only %d bytes; the %d-byte budget would not bind", unlimited, budget)
	}
	for _, workers := range []int{1, 2, 4} {
		got, p := peak(budget, workers)
		if p <= 0 || p > budget {
			t.Errorf("workers=%d: engine-wide peak %d bytes, want within (0, %d]", workers, p, budget)
		}
		if !reflect.DeepEqual(want.Labels, got.Labels) || !reflect.DeepEqual(want.Values, got.Values) {
			t.Errorf("workers=%d: budgeted result differs from the unlimited one", workers)
		}
	}
}

// TestGrowthCandidateCap: a cap below a level's candidate count stops the
// engine with a *CapError naming the first level over it — the level the
// level-wise engine truncates — and records no lattice telemetry; a cap at
// the largest level's count lets the run finish unchanged.
func TestGrowthCandidateCap(t *testing.T) {
	c, sample := longSample(t)
	sm := symbolMatches(t, c, sample)
	want := levelwise(t, c, sample, sm, 0.3, 0.05, 6, 1)
	widest, level := 0, 0
	for k, n := range want.CandidatesPerLevel[1:] {
		if n > widest {
			widest, level = n, k+2
		}
	}
	if widest < 2 {
		t.Fatalf("lattice too small: %v", want.CandidatesPerLevel)
	}
	cfg := growth.Config{SymbolMatch: sm, MinMatch: 0.3, Delta: 0.05, MaxLen: 6, MaxGap: 1}
	for _, workers := range []int{1, 3} {
		ccfg := cfg
		ccfg.Workers = workers
		ccfg.MaxCandidatesPerLevel = widest
		got, err := growth.Mine(c, sample, ccfg)
		if err != nil {
			t.Fatalf("workers=%d, cap %d: %v", workers, widest, err)
		}
		assertEquivalent(t, want, got)

		m := &telemetry.Metrics{}
		ccfg.MaxCandidatesPerLevel, ccfg.Metrics = widest-1, m
		_, err = growth.Mine(c, sample, ccfg)
		var capped *growth.CapError
		if !errors.As(err, &capped) {
			t.Fatalf("workers=%d, cap %d: err = %v, want a *CapError", workers, widest-1, err)
		}
		// The first level over the cap is the widest one unless an earlier
		// level also exceeds it.
		first := level
		for k, n := range want.CandidatesPerLevel[1:] {
			if n > widest-1 {
				first = k + 2
				break
			}
		}
		if capped.Level != first || capped.Cap != widest-1 {
			t.Errorf("workers=%d: %+v, want level %d over cap %d", workers, *capped, first, widest-1)
		}
		if snap := m.Snapshot(); snap.Candidates != 0 || snap.Frequent+snap.Ambiguous+snap.Infrequent != 0 {
			t.Errorf("workers=%d: a capped run recorded lattice telemetry: %+v", workers, snap)
		}
	}
}

// TestGrowthPinnedEviction pins the recycling contract. Under a budget that
// binds, the subsAlive → resolve → processNode recursion evicts the
// projection of a node still being processed; the pin must keep that
// projection's arrays from being reused until the node is done. Labels and
// values must equal an unlimited-budget run's at every worker count, run
// after run, and the single-worker run, whose order is fixed, must have
// evicted a pinned projection, so the path is taken.
func TestGrowthPinnedEviction(t *testing.T) {
	c, sample := longSample(t)
	cfg := growth.Config{MinMatch: 0.3, Delta: 0.05, MaxLen: 6, MaxGap: 1, Budget: -1}
	want, err := growth.Mine(c, sample, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Budget = 128 << 10
	for _, workers := range []int{1, 2, 4} {
		cfg.Workers = workers
		var pins int64
		for run := 0; run < 3; run++ {
			got, n, err := growth.MineCountingPins(c, sample, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Labels, got.Labels) || !reflect.DeepEqual(want.Values, got.Values) {
				t.Fatalf("workers=%d run %d: result differs from the unlimited-budget run", workers, run)
			}
			pins += n
		}
		t.Logf("workers=%d: %d pinned projections evicted over 3 runs", workers, pins)
		if workers == 1 && pins == 0 {
			t.Fatal("no pinned projection was evicted: the budget does not exercise the pin")
		}
	}
}

// TestGrowthRecyclesProjections: with recycling, a mine under a binding
// budget allocates well under what an unlimited-budget mine does. The
// unlimited mine allocates every projection it builds exactly once and
// keeps it; a budgeted mine builds more (evicted projections are rebuilt),
// but into the arrays of the ones it retired. Without recycling the
// budgeted mine allocated 1.6× the unlimited one's bytes on this fixture.
func TestGrowthRecyclesProjections(t *testing.T) {
	c, sample := longSample(t)
	alloc := func(budget int64) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := growth.Mine(c, sample, growth.Config{MinMatch: 0.3, Delta: 0.05, MaxLen: 6, MaxGap: 1, Budget: budget, Workers: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	unlimited, budgeted := alloc(-1), alloc(64<<10)
	t.Logf("allocated %d KiB unlimited, %d KiB under a 64 KiB budget", unlimited>>10, budgeted>>10)
	if budgeted*2 > unlimited {
		t.Fatalf("a 64 KiB-budget mine allocated %d bytes, more than half the unlimited mine's %d", budgeted, unlimited)
	}
}
