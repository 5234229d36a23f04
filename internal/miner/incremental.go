package miner

import (
	"runtime"

	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/telemetry"
)

// IncrementalConfig tunes IncrementalSampleValuer.
type IncrementalConfig struct {
	// Workers builds and values each level on this many goroutines (0 or
	// 1 = sequential, negative = GOMAXPROCS). Values are bit-identical for
	// every worker count — shard boundaries and the merge order are fixed by
	// the sample alone.
	Workers int
	// Budget bounds the prefix cache in bytes (0 = match.DefaultCacheBudget,
	// negative = unlimited); exceeding it degrades speed, never correctness.
	Budget int64
	// Metrics, when non-nil, receives per-level kernel telemetry
	// (extension/scratch counts, cached windows, bytes, evictions).
	Metrics *telemetry.Metrics
	// Lend, when non-nil, lends each parallel section of a level extra
	// goroutines (match.IncrementalOptions.Lend).
	Lend func(want int) (got int, giveBack func())
}

// IncrementalSampleValuer is the Phase 2 sample valuer: the level-wise
// projection kernel (match.Incremental) wrapped as a Valuer for
// Engine.Run / SampleChernoffContext. Each lattice level is scored by
// extending the cached per-sequence window products of the previous level —
// one row lookup and one multiply per surviving window — instead of
// re-walking every pattern against the whole sample; values equal
// MatchSampleValuer's within float64 sum reassociation (per-sequence values
// are bit-identical).
//
// The kernel relies on the engine's level-serial contract: each call's
// candidates are right-extensions of the previous call's (any candidate
// without a cached parent is transparently recomputed from scratch, so
// out-of-order use is slower, never wrong). The returned kernel gives access
// to cumulative stats and to Release, which drops the final level's cache
// once mining ends.
func IncrementalSampleValuer(c compat.Source, sample [][]pattern.Symbol, cfg IncrementalConfig) (Valuer, *match.Incremental) {
	workers := cfg.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inc := match.NewIncremental(c, sample, match.IncrementalOptions{
		Workers: workers,
		Budget:  cfg.Budget,
		Lend:    cfg.Lend,
	})
	valuer := func(ps []pattern.Pattern) ([]float64, error) {
		vals, ls, err := inc.ValueLevel(ps)
		if err != nil {
			return nil, err
		}
		cfg.Metrics.KernelLevel(ls.Extended, ls.Scratch, ls.Windows, ls.Bytes, ls.Evicted, ls.Fallback)
		return vals, nil
	}
	return valuer, inc
}
