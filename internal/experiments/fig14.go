package experiments

import (
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/maxminer"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/stats"
)

// Fig14Config parameterizes the three-algorithm performance comparison
// (§5.6, Figure 14): the probabilistic algorithm with border collapsing,
// the sampling-based level-wise search, and the adapted Max-Miner, over a
// range of match thresholds on a disk-resident database.
type Fig14Config struct {
	Scale Scale
	Seed  int64
	Alpha float64 // noise level; 0 = 0.3
	// Thresholds is the min_match sweep (descending); nil = defaults.
	Thresholds []float64
	// SampleSize and MemBudget shape the probabilistic runs. 0 = defaults.
	SampleSize int
	MemBudget  int
	// Dir holds the on-disk database; "" = a temp dir.
	Dir string
}

func (c *Fig14Config) setDefaults() {
	if c.Alpha == 0 {
		c.Alpha = 0.05
	}
	if c.Thresholds == nil {
		c.Thresholds = []float64{0.13, 0.11, 0.095, 0.08}
	}
	if c.SampleSize == 0 {
		c.SampleSize = pick(c.Scale, 800, 1500, 3000)
	}
	if c.MemBudget == 0 {
		c.MemBudget = pick(c.Scale, 10, 20, 40)
	}
}

// Fig14Row reports one threshold. (The paper-verbatim implicit collapse is
// not a column here: its lattice is gap-unbounded, so in this MaxGap=0
// world it resolves a strictly larger region and the scan counts would not
// be comparable; BenchmarkImplicitCollapse covers it on a matched space.)
type Fig14Row struct {
	MinMatch float64
	// Per-algorithm CPU time (Figure 14(a)).
	CollapseTime, LevelWiseTime, MaxMinerTime time.Duration
	// Per-algorithm full database scans (Figure 14(b)).
	CollapseScans, LevelWiseScans, MaxMinerScans int
	// Patterns evaluated against the full database (Figure 14(c)'s
	// finalization effort: the level-wise search probes far more).
	CollapseProbed, LevelWiseProbed, MaxMinerCounted int
	// Frequent patterns found (identical across algorithms by construction;
	// reported for sanity).
	Frequent int
}

// Fig14Result bundles the sweep.
type Fig14Result struct {
	Config Fig14Config
	Rows   []Fig14Row
}

// fig14World builds the deep-border workload of the performance comparison:
// five long motif families over a 60-symbol alphabet at low noise, so the
// pattern values form a dense per-level ladder (ratio β ≈ 0.9 per level) and
// the sample-estimated border is a band spanning several lattice levels —
// the regime the paper's §5.6 discussion attributes the level-wise search's
// many scans to ("the match value usually changes very little from level to
// level ... especially when the pattern is long").
func fig14World(s Scale, alpha float64, seed int64) (*samplingWorld, error) {
	rng := rand.New(rand.NewSource(seed))
	const m, motifLen, families = 60, 10, 5
	n := pick(s, 3000, 6000, 15000)
	std := seqdb.NewMemDB(nil)
	for i := 0; i < n; i++ {
		l := 14 + rng.Intn(7)
		seq := make([]pattern.Symbol, l)
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(m))
		}
		if f := rng.Float64(); f < 0.19*families {
			family := int(f / 0.19)
			pos := rng.Intn(l - motifLen + 1)
			for j := 0; j < motifLen; j++ {
				seq[pos+j] = pattern.Symbol(family*motifLen + j)
			}
		}
		std.Append(seq)
	}
	sub, comp, err := pairChannel(m, alpha)
	if err != nil {
		return nil, err
	}
	test, err := noisyCopy(std, sub, alpha, rng)
	if err != nil {
		return nil, err
	}
	return &samplingWorld{test: test, comp: comp, m: m, maxLen: motifLen, maxGap: 0}, nil
}

// Fig14 runs the performance comparison on a disk-resident database.
func Fig14(cfg Fig14Config) (*Fig14Result, error) {
	cfg.setDefaults()
	w, err := fig14World(cfg.Scale, cfg.Alpha, cfg.Seed+14)
	if err != nil {
		return nil, err
	}
	dir := cfg.Dir
	if dir == "" {
		dir, err = os.MkdirTemp("", "lsp-fig14-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, "fig14.lsq")
	if err := seqdb.WriteFile(path, w.test); err != nil {
		return nil, err
	}
	disk, err := seqdb.OpenFile(path)
	if err != nil {
		return nil, err
	}

	res := &Fig14Result{Config: cfg}
	for _, minMatch := range cfg.Thresholds {
		row := Fig14Row{MinMatch: minMatch}

		mineWith := func(fin core.Finalizer) (*core.Result, time.Duration, error) {
			disk.ResetScans()
			start := time.Now()
			r, err := core.Mine(disk, w.comp, core.Config{
				MinMatch:   minMatch,
				SampleSize: cfg.SampleSize,
				MaxLen:     w.maxLen,
				MaxGap:     w.maxGap,
				MemBudget:  cfg.MemBudget,
				Finalizer:  fin,
				Rng:        rand.New(rand.NewSource(cfg.Seed + 140)),
			})
			return r, time.Since(start), err
		}

		bc, bcTime, err := mineWith(core.BorderCollapsing)
		if err != nil {
			return nil, err
		}
		row.CollapseTime, row.CollapseScans = bcTime, bc.Scans
		if bc.Phase3 != nil {
			row.CollapseProbed = bc.Phase3.Probed
		}
		row.Frequent = bc.Frequent.Len()

		lw, lwTime, err := mineWith(core.LevelWise)
		if err != nil {
			return nil, err
		}
		row.LevelWiseTime, row.LevelWiseScans = lwTime, lw.Scans
		if lw.Phase3 != nil {
			row.LevelWiseProbed = lw.Phase3.Probed
		}

		disk.ResetScans()
		start := time.Now()
		mm, err := maxminer.Mine(w.m, miner.MatchDBValuer(disk, w.comp), minMatch,
			miner.Options{MaxLen: w.maxLen, MaxGap: w.maxGap})
		if err != nil {
			return nil, err
		}
		row.MaxMinerTime, row.MaxMinerScans, row.MaxMinerCounted = time.Since(start), mm.Scans, mm.Counted

		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the sweep (times in milliseconds).
func (r *Fig14Result) Table() *stats.Table {
	t := stats.NewTable("min_match",
		"collapse_ms", "levelwise_ms", "maxminer_ms",
		"collapse_scans", "levelwise_scans", "maxminer_scans",
		"collapse_probed", "levelwise_probed", "maxminer_counted", "frequent")
	for _, row := range r.Rows {
		t.AddRow(row.MinMatch,
			float64(row.CollapseTime.Microseconds())/1000,
			float64(row.LevelWiseTime.Microseconds())/1000,
			float64(row.MaxMinerTime.Microseconds())/1000,
			row.CollapseScans, row.LevelWiseScans, row.MaxMinerScans,
			row.CollapseProbed, row.LevelWiseProbed, row.MaxMinerCounted, row.Frequent)
	}
	return t
}
