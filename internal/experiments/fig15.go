package experiments

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// Fig15Config parameterizes the alphabet-size scalability experiment (§5.7,
// Figure 15): synthetic databases with m distinct symbols and a sparse
// compatibility matrix (each symbol compatible with a bounded set of
// others), mined by the probabilistic algorithm.
type Fig15Config struct {
	Scale Scale
	Seed  int64
	// Ms is the alphabet-size sweep. nil = scale defaults.
	Ms []int
	// Alpha is the substitution probability. 0 = 0.2.
	Alpha float64
	// MinMatch, SampleSize, MemBudget: 0 = defaults.
	MinMatch   float64
	SampleSize int
	MemBudget  int
}

func (c *Fig15Config) setDefaults() {
	if c.Ms == nil {
		c.Ms = pick(c.Scale,
			[]int{20, 50, 200, 1000},
			[]int{20, 100, 1000, 3000},
			[]int{20, 100, 1000, 10000})
	}
	if c.Alpha == 0 {
		c.Alpha = 0.2
	}
	if c.MinMatch == 0 {
		c.MinMatch = 0.05
	}
	if c.SampleSize == 0 {
		c.SampleSize = pick(c.Scale, 1600, 2500, 4000)
	}
	if c.MemBudget == 0 {
		c.MemBudget = pick(c.Scale, 4000, 8000, 20000)
	}
}

// Fig15Row reports one alphabet size.
type Fig15Row struct {
	M         int
	Scans     int
	Time      time.Duration
	Ambiguous int
	Frequent  int
}

// Fig15Result bundles the sweep.
type Fig15Result struct {
	Config Fig15Config
	Rows   []Fig15Row
}

// Fig15 measures scans and response time versus the number of distinct
// symbols, mining each database with core.Mine. The compatibility matrix is
// held in the sparse representation (O(non-zeros) storage), this
// implementation's answer to the paper's §6 remark that dense storage
// degrades at very large m. Phase 2's kernel (match.Projector) still
// expands every row densely, m² floats in all.
func Fig15(cfg Fig15Config) (*Fig15Result, error) {
	cfg.setDefaults()
	const maxLen, maxGap = 3, 0
	res := &Fig15Result{Config: cfg}
	for _, m := range cfg.Ms {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(m)))
		density := 12.0 / float64(m-1)
		if density > 0.1 {
			density = 0.1
		}
		comp, mut, err := datagen.SparseNoise(m, cfg.Alpha, density, rng)
		if err != nil {
			return nil, err
		}
		motifs := []pattern.Pattern{
			{0, pattern.Symbol(m / 3), pattern.Symbol(m / 2)},
			{pattern.Symbol(m / 4), pattern.Symbol(2 * m / 3), pattern.Symbol(m - 1)},
		}
		n := pick(cfg.Scale, 2400, 4000, 8000)
		std, err := datagen.Uniform(n, 40, m, motifs, 0.25, rng)
		if err != nil {
			return nil, err
		}
		test, err := datagen.ApplyMutator(std, mut, rng)
		if err != nil {
			return nil, err
		}

		start := time.Now()
		run, err := core.Mine(test, comp, core.Config{
			MinMatch:   cfg.MinMatch,
			SampleSize: cfg.SampleSize,
			MaxLen:     maxLen,
			MaxGap:     maxGap,
			MemBudget:  cfg.MemBudget,
			Rng:        rand.New(rand.NewSource(cfg.Seed + 150)),
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig15Row{
			M:         m,
			Scans:     run.Scans,
			Time:      time.Since(start),
			Ambiguous: run.Phase2.Ambiguous.Len(),
			Frequent:  run.Frequent.Len(),
		})
	}
	return res, nil
}

// Table renders the scalability sweep (times in milliseconds).
func (r *Fig15Result) Table() *stats.Table {
	t := stats.NewTable("m", "scans", "time_ms", "ambiguous", "frequent")
	for _, row := range r.Rows {
		t.AddRow(row.M, row.Scans, float64(row.Time.Microseconds())/1000, row.Ambiguous, row.Frequent)
	}
	return t
}
