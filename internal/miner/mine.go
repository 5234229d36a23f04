package miner

import (
	"context"

	"repro/internal/chernoff"
	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// MatchSampleValuer evaluates candidates against an in-memory sample under
// the match measure, one compiled pattern at a time (Compiled.Match),
// summing the sample in order: the naive reference the Phase 2 kernel
// (IncrementalSampleValuer) is tested and benchmarked against. It shares no
// code with the batch kernel the probe passes run, so it stays a check on
// both.
func MatchSampleValuer(c compat.Source, sample [][]pattern.Symbol) Valuer {
	return func(ps []pattern.Pattern) ([]float64, error) {
		sums := make([]float64, len(ps))
		for i, p := range ps {
			cp, err := match.Compile(c, p)
			if err != nil {
				return nil, err
			}
			for _, seq := range sample {
				sums[i] += cp.Match(seq)
			}
		}
		return mean(sums, len(sample)), nil
	}
}

// mean divides sums by the sequence count n in place (n == 0 leaves them
// zero) and returns them.
func mean(sums []float64, n int) []float64 {
	if n > 0 {
		for i := range sums {
			sums[i] /= float64(n)
		}
	}
	return sums
}

// DBValuer evaluates candidates under an arbitrary measure with one full
// database scan per call, summing in sequence order. The per-pass sums are
// rebuilt per attempt, so a retrying scanner can re-run a failed pass
// without double-counting. Averages divide by the number of sequences the
// pass delivered, not db.Len(), so a scanner with a stale or estimated
// Len() cannot skew the values.
func DBValuer(db seqdb.Scanner, meas match.Measure) Valuer {
	return func(ps []pattern.Pattern) ([]float64, error) {
		if len(ps) == 0 {
			// An empty batch needs no counters, so it must not cost a scan.
			return nil, nil
		}
		var sums []float64
		var delivered int
		err := seqdb.ScanPass(db, func() (func(id int, seq []pattern.Symbol) error, error) {
			sums = make([]float64, len(ps))
			delivered = 0
			return func(id int, seq []pattern.Symbol) error {
				delivered++
				for i, p := range ps {
					sums[i] += meas.Value(p, seq)
				}
				return nil
			}, nil
		})
		if err != nil {
			return nil, err
		}
		return mean(sums, delivered), nil
	}
}

// Exhaustive mines the complete set of patterns whose value meets minMatch,
// using a deterministic binary classification (no sampling uncertainty).
// With a DBValuer it consumes one scan per lattice level; with a sample or
// in-memory valuer it is the ground-truth miner of the experiments.
func Exhaustive(m int, valuer Valuer, minMatch float64, opts Options) (*Result, error) {
	e := &Engine{
		M:     m,
		Opts:  opts,
		Value: valuer,
		Classify: func(_ pattern.Pattern, v, _ float64) chernoff.Label {
			if v >= minMatch {
				return chernoff.Frequent
			}
			return chernoff.Infrequent
		},
	}
	return e.Run()
}

// SampleChernoff runs Phase 2: it classifies patterns as frequent, ambiguous
// or infrequent from their sample matches using the Chernoff bound with the
// restricted spread (Claims 4.1/4.2). symbolMatch must hold Phase 1's exact
// full-database symbol matches. The returned Result's Ambiguous set is the
// input to Phase 3.
func SampleChernoff(m int, valuer Valuer, symbolMatch []float64, minMatch, delta float64, sampleSize int, opts Options) (*Result, error) {
	return SampleChernoffContext(nil, m, valuer, symbolMatch, minMatch, delta, sampleSize, opts)
}

// SampleChernoffContext is SampleChernoff with cancellation checked between
// lattice levels.
func SampleChernoffContext(ctx context.Context, m int, valuer Valuer, symbolMatch []float64, minMatch, delta float64, sampleSize int, opts Options) (*Result, error) {
	cls, err := chernoff.NewClassifier(minMatch, delta, sampleSize)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		M:           m,
		Ctx:         ctx,
		Opts:        opts,
		Value:       valuer,
		SymbolMatch: symbolMatch,
		MinMatch:    minMatch,
		Classify: func(_ pattern.Pattern, v, spread float64) chernoff.Label {
			return cls.Classify(v, spread)
		},
	}
	return e.Run()
}
