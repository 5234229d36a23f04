package match

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/testutil"
)

// randomDense builds a dense random compatibility matrix with zeroRate of
// the cells forced to zero (columns renormalized).
func randomDense(t testing.TB, m int, zeroRate float64, rng *rand.Rand) compat.Source {
	t.Helper()
	dense := make([][]float64, m)
	for i := range dense {
		dense[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		sum := 0.0
		for i := 0; i < m; i++ {
			v := rng.Float64()
			if rng.Float64() < zeroRate {
				v = 0
			}
			dense[i][j] = v
			sum += v
		}
		if sum == 0 { // keep the column stochastic
			dense[j][j] = 1
			sum = 1
		}
		for i := 0; i < m; i++ {
			dense[i][j] /= sum
		}
	}
	c, err := compat.New(dense)
	if err != nil {
		t.Fatalf("randomDense: %v", err)
	}
	return c
}

// randomSparse builds a banded sparse matrix: each observed symbol is
// explained by itself and its two ring neighbors.
func randomSparse(t testing.TB, m int) compat.Source {
	t.Helper()
	var cells []compat.Cell
	for o := 0; o < m; o++ {
		cells = append(cells,
			compat.Cell{True: pattern.Symbol(o), Observed: pattern.Symbol(o), P: 0.9},
			compat.Cell{True: pattern.Symbol((o + 1) % m), Observed: pattern.Symbol(o), P: 0.06},
			compat.Cell{True: pattern.Symbol((o + m - 1) % m), Observed: pattern.Symbol(o), P: 0.04},
		)
	}
	c, err := compat.NewSparse(m, cells)
	if err != nil {
		t.Fatalf("randomSparse: %v", err)
	}
	return c
}

func randomSample(n, minLen, maxLen, m int, rng *rand.Rand) [][]pattern.Symbol {
	sample := make([][]pattern.Symbol, n)
	for i := range sample {
		l := minLen + rng.Intn(maxLen-minLen+1)
		seq := make([]pattern.Symbol, l)
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(m))
		}
		sample[i] = seq
	}
	return sample
}

// driveLattice mimics the engine's level-serial contract: level 1 is every
// symbol, each later level right-extends a pseudo-random alive subset of the
// previous level with gaps up to maxGap. Every level is fed to the kernel and
// every value checked == against Projector.Value (per-pattern compiled
// matching under the same shard split) and within 1e-12 of the naive
// per-sequence reference. After each level, inspect (when non-nil) sees the
// kernel.
func driveLattice(t *testing.T, c compat.Source, sample [][]pattern.Symbol, o IncrementalOptions, maxLevels, maxGap int, rng *rand.Rand, inspect func(k int, inc *Incremental)) *Incremental {
	t.Helper()
	m := c.Size()
	meas := NewMatch(c)
	pj := NewProjector(c, sample, o.ShardSize)
	inc := NewIncremental(c, sample, o)
	level := make([]pattern.Pattern, 0, m)
	for d := 0; d < m; d++ {
		level = append(level, pattern.Pattern{pattern.Symbol(d)})
	}
	for k := 1; k <= maxLevels && len(level) > 0; k++ {
		vals, _, err := inc.ValueLevel(level)
		if err != nil {
			t.Fatalf("level %d: %v", k, err)
		}
		if len(vals) != len(level) {
			t.Fatalf("level %d: %d values for %d candidates", k, len(vals), len(level))
		}
		var alive []pattern.Pattern
		for i, p := range level {
			checkValue(t, pj, meas, sample, p, vals[i])
			// Keep a deterministic subset alive so levels stay tractable.
			if vals[i] > 0 && rng.Float64() < 0.4 {
				alive = append(alive, p)
			}
		}
		if inspect != nil {
			inspect(k, inc)
		}
		// Never let the lattice die by coin flips alone: the tests assert
		// that deeper levels were exercised, for any RNG seed.
		if len(alive) == 0 {
			for i, p := range level {
				if vals[i] > 0 {
					alive = append(alive, p)
					break
				}
			}
		}
		var next []pattern.Pattern
		for _, p := range alive {
			for gap := 0; gap <= maxGap; gap++ {
				for tries := 0; tries < 2; tries++ {
					next = append(next, pattern.Extend(p, gap, pattern.Symbol(rng.Intn(m))))
				}
			}
			if len(next) > 120 {
				break
			}
		}
		level = next
	}
	return inc
}

// checkValue asserts the kernel's value v of p is Projector.Value's float
// exactly and the naive reference's within 1e-12.
func checkValue(t *testing.T, pj *Projector, meas Match, sample [][]pattern.Symbol, p pattern.Pattern, v float64) {
	t.Helper()
	want, err := pj.Value(p)
	if err != nil {
		t.Fatal(err)
	}
	if v != want {
		t.Fatalf("pattern %s: kernel %v, Projector.Value %v", p, v, want)
	}
	if naive := Sample(meas, p, sample); math.Abs(v-naive) > 1e-12 {
		t.Fatalf("pattern %s: kernel %v, naive %v", p, v, naive)
	}
}

func TestIncrementalMatchesNaiveDense(t *testing.T) {
	rng := testutil.Rng(t)
	c := randomDense(t, 12, 0, rng)
	sample := randomSample(40, 5, 30, 12, rng)
	inc := driveLattice(t, c, sample, IncrementalOptions{}, 5, 1, rng, nil)
	st := inc.Stats()
	if st.Extended == 0 {
		t.Fatalf("no pattern was served by extension: %+v", st)
	}
	if st.Fallbacks != 0 || st.Evicted != 0 {
		t.Fatalf("unexpected budget activity: %+v", st)
	}
}

func TestIncrementalMatchesNaiveSparseZeros(t *testing.T) {
	rng := testutil.Rng(t)
	for _, tc := range []struct {
		name string
		c    compat.Source
	}{
		{"dense-with-zeros", randomDense(t, 10, 0.7, rng)},
		{"sparse-banded", randomSparse(t, 16)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sample := randomSample(50, 4, 24, tc.c.Size(), rng)
			driveLattice(t, tc.c, sample, IncrementalOptions{Workers: 3, ShardSize: 7}, 6, 2, rng, nil)
		})
	}
}

// TestIncrementalSparseReuse drives a banded-sparse lattice over long
// sequences, where short patterns keep many windows and longer ones few: from
// level 4 on, the spine is built into arrays retired from shorter patterns,
// so stale windows sit past every reused block's end. Values must not move,
// and the test fails if no level reused an array larger than its block.
func TestIncrementalSparseReuse(t *testing.T) {
	rng := testutil.Rng(t)
	c := randomSparse(t, 12)
	sample := randomSample(70, 30, 90, 12, rng)
	reusedLarger := false
	inspect := func(k int, inc *Incremental) {
		for _, pr := range inc.prev {
			if held(pr) > pr.Bytes() {
				reusedLarger = true
			}
		}
	}
	for _, workers := range []int{1, 3} {
		driveLattice(t, c, sample, IncrementalOptions{Workers: workers, ShardSize: 16}, 7, 1, rng, inspect)
	}
	if !reusedLarger {
		t.Fatal("no spine projection was built into a larger retired array")
	}
}

// held is the capacity a projection's arrays hold, which exceeds its charge
// (Bytes) only when a build reused a retired array larger than its block.
func held(pr *Projection) int64 {
	var n int64
	for _, sw := range pr.shards {
		n += int64(cap(sw.offs))*4 + int64(cap(sw.starts))*4 + int64(cap(sw.prods))*8
	}
	return n
}

func TestIncrementalEternalHeavy(t *testing.T) {
	// Patterns dominated by eternal gaps: a * * b * * c …
	rng := testutil.Rng(t)
	c := randomDense(t, 8, 0.4, rng)
	sample := randomSample(30, 10, 40, 8, rng)
	meas := NewMatch(c)
	pj := NewProjector(c, sample, 8)
	inc := NewIncremental(c, sample, IncrementalOptions{Workers: 2, ShardSize: 8})

	level := []pattern.Pattern{}
	for d := 0; d < 8; d++ {
		level = append(level, pattern.Pattern{pattern.Symbol(d)})
	}
	for k := 1; k <= 4 && len(level) > 0; k++ {
		vals, _, err := inc.ValueLevel(level)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range level {
			checkValue(t, pj, meas, sample, p, vals[i])
		}
		var next []pattern.Pattern
		for _, p := range level[:min(len(level), 10)] {
			next = append(next, pattern.Extend(p, 2, pattern.Symbol(rng.Intn(8))))
		}
		level = next
	}
}

func TestIncrementalBudgetFallback(t *testing.T) {
	// A 1-byte budget evicts everything: every level after the first scores
	// through the compiled-matcher fallback, and values must not move.
	rng := testutil.Rng(t)
	c := randomDense(t, 10, 0.3, rng)
	sample := randomSample(35, 5, 25, 10, rng)
	inc := driveLattice(t, c, sample, IncrementalOptions{Budget: 1, Workers: 2, ShardSize: 5}, 5, 1, rng, nil)
	st := inc.Stats()
	if st.Fallbacks == 0 {
		t.Fatalf("expected budget fallbacks, got %+v", st)
	}
	if st.Extended != 0 {
		t.Fatalf("nothing should extend under a 1-byte budget: %+v", st)
	}
}

func TestIncrementalWorkerCountInvariance(t *testing.T) {
	// The same lattice must produce bit-identical values and level stats for
	// any worker count: shard boundaries and merge order depend only on the
	// sample, admission only on lengths and charges.
	rng := testutil.Rng(t)
	c := randomDense(t, 10, 0.2, rng)
	sample := randomSample(60, 5, 25, 10, rng)

	levels := [][]pattern.Pattern{}
	level := []pattern.Pattern{}
	for d := 0; d < 10; d++ {
		level = append(level, pattern.Pattern{pattern.Symbol(d)})
	}
	for k := 0; k < 4; k++ {
		levels = append(levels, level)
		var next []pattern.Pattern
		for _, p := range level[:min(len(level), 8)] {
			next = append(next, pattern.Extend(p, 0, pattern.Symbol((k+int(p[0]))%10)))
			next = append(next, pattern.Extend(p, 1, pattern.Symbol((k+2*int(p[0]))%10)))
		}
		level = next
	}

	run := func(workers int, budget int64) ([][]float64, []LevelStats) {
		inc := NewIncremental(c, sample, IncrementalOptions{Workers: workers, ShardSize: 9, Budget: budget})
		var out [][]float64
		var stats []LevelStats
		for _, lv := range levels {
			vals, ls, err := inc.ValueLevel(lv)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, vals)
			stats = append(stats, ls)
		}
		return out, stats
	}
	// The default budget admits every parent; the tight one — room for a
	// few one-symbol projections — denies parents on some level, and the
	// charge of what it admitted feeds the next level's admission, so the
	// split and every charged byte must not depend on scheduling either.
	tight := 4*NewProjector(c, sample, 9).WindowBytesBound(1) + 1
	for _, budget := range []int64{0, tight} {
		want, wantStats := run(1, budget)
		var evicted, extended int64
		for _, ls := range wantStats {
			evicted += ls.Evicted
			extended += ls.Extended
		}
		if budget == tight && (evicted == 0 || extended == 0) {
			t.Fatalf("tight budget should deny some parents and admit others: %+v", wantStats)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			for rep := 0; rep < 2; rep++ {
				got, gotStats := run(workers, budget)
				for li := range want {
					for i := range want[li] {
						if got[li][i] != want[li][i] {
							t.Fatalf("budget=%d workers=%d level %d pattern %d: %v != %v",
								budget, workers, li, i, got[li][i], want[li][i])
						}
					}
					if gotStats[li] != wantStats[li] {
						t.Fatalf("budget=%d workers=%d level %d: stats %+v, sequential %+v",
							budget, workers, li, gotStats[li], wantStats[li])
					}
				}
			}
		}
	}
}

func TestIncrementalOrphanAndEdgeCases(t *testing.T) {
	rng := testutil.Rng(t)
	c := randomDense(t, 6, 0.3, rng)
	meas := NewMatch(c)

	t.Run("empty-sample", func(t *testing.T) {
		inc := NewIncremental(c, nil, IncrementalOptions{})
		vals, _, err := inc.ValueLevel([]pattern.Pattern{pattern.MustNew(0)})
		if err != nil || vals[0] != 0 {
			t.Fatalf("vals=%v err=%v", vals, err)
		}
	})
	t.Run("empty-level", func(t *testing.T) {
		inc := NewIncremental(c, randomSample(5, 3, 6, 6, rng), IncrementalOptions{})
		vals, _, err := inc.ValueLevel(nil)
		if err != nil || len(vals) != 0 {
			t.Fatalf("vals=%v err=%v", vals, err)
		}
	})
	t.Run("orphan-pattern", func(t *testing.T) {
		// A pattern whose parent was never evaluated heals: the parent's
		// spine block is rebuilt from scratch and the orphan is valued
		// through extension, exactly. The random matrix may zero the cells a
		// random sample offers the pattern, leaving the rebuilt block no
		// window, so the pattern is drawn from symbols with a non-zero row
		// (1 * 3 2 when every row has one) and planted, through each
		// symbol's first compatible observation, at the head of three
		// sequences.
		var live []pattern.Symbol
		for d := pattern.Symbol(0); d < 6; d++ {
			if len(c.ObservedGiven(d)) > 0 {
				live = append(live, d)
			}
		}
		sym := func(i int) pattern.Symbol { return live[i%len(live)] }
		p := pattern.MustNew(sym(1), pattern.Eternal, sym(3), sym(2))
		sample := randomSample(20, 8, 16, 6, rng)
		for _, seq := range sample[:3] {
			for i, s := range p {
				if !s.IsEternal() {
					seq[i] = c.ObservedGiven(s)[0].Sym
				}
			}
		}
		inc := NewIncremental(c, sample, IncrementalOptions{Workers: 2, ShardSize: 4})
		vals, ls, err := inc.ValueLevel([]pattern.Pattern{p})
		if err != nil {
			t.Fatal(err)
		}
		if want := Sample(meas, p, sample); math.Abs(vals[0]-want) > 1e-12 {
			t.Fatalf("orphan: incremental %v, naive %v", vals[0], want)
		}
		if ls.Extended != 1 || ls.Scratch != 0 || ls.Windows == 0 {
			t.Fatalf("orphan should heal via a rebuilt parent block: %+v", ls)
		}
	})
	t.Run("shorter-than-pattern", func(t *testing.T) {
		sample := [][]pattern.Symbol{{0}, {1, 2}}
		inc := NewIncremental(c, sample, IncrementalOptions{})
		p := pattern.MustNew(0, 1, 2)
		vals, _, err := inc.ValueLevel([]pattern.Pattern{p})
		if err != nil || vals[0] != 0 {
			t.Fatalf("vals=%v err=%v", vals, err)
		}
	})
	t.Run("invalid-pattern", func(t *testing.T) {
		inc := NewIncremental(c, randomSample(5, 3, 6, 6, rng), IncrementalOptions{})
		if _, _, err := inc.ValueLevel([]pattern.Pattern{{pattern.Eternal, 1}}); err == nil {
			t.Fatal("invalid pattern accepted")
		}
	})
}
