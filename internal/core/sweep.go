package core

import (
	"context"
	"fmt"

	"repro/internal/chernoff"
	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// MineSweep is the window-sweep variant of the three-phase algorithm,
// designed for sparse compatibility matrices and very large alphabets (the
// paper's §6 E-commerce direction): Phase 2 enumerates the sample's
// compatible windows level by level (match.LevelSweep) instead of
// generating candidates, so its cost is occurrence-bound and independent of
// m², and no m×m structure is ever materialized when c is a SparseMatrix.
//
// Soundness of the sweep's negative classifications requires the Chernoff
// band to sit strictly inside (0, min_match): patterns absent from the
// sample have sample match 0 and are classified infrequent, which holds at
// confidence 1-δ only if ε < min_match. MineSweep verifies this and returns
// an error otherwise (use a larger sample, a higher threshold, or the
// candidate-driven Mine, which has no such restriction).
//
// MaxCandidatesPerLevel is ignored: the sweep never generates candidates.
// Results are identical to Mine up to the sweep's documented floor
// undercount (min_match/64, folded into the ambiguous band).
func MineSweep(db seqdb.Scanner, c compat.Source, cfg Config) (*Result, error) {
	return MineSweepContext(context.Background(), db, c, cfg)
}

// MineSweepContext is MineSweep with the cancellation, phase-attribution,
// partial-result, retry, checkpoint/resume, and phase-budget semantics of
// MineContext: ctx is checked between sequences in Phase 1, between sweep
// levels in Phase 2, and between/within probe scans in Phase 3; failures
// surface as *PhaseError.
func MineSweepContext(ctx context.Context, db seqdb.Scanner, c compat.Source, cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Phase2Engine == Phase2Growth {
		return nil, fmt.Errorf("core: Phase2Engine %v incompatible with the sweep pipeline", cfg.Phase2Engine)
	}
	return mineContext(ctx, db, c, cfg, engineSweep, nil)
}

// phase2Sweep is the window-sweep Phase 2: level 1 is labeled exactly from
// the Phase 1 symbol matches, and higher levels enumerate the sample's
// compatible windows with match.LevelSweep.
func phase2Sweep(ctx context.Context, c compat.Source, cfg *Config, symbolMatch []float64, sample [][]pattern.Symbol) (*miner.Result, error) {
	n := len(sample)
	cls, err := chernoff.NewClassifier(cfg.MinMatch, cfg.Delta, n)
	if err != nil {
		return nil, err
	}
	p2 := &miner.Result{
		Frequent:  pattern.NewSet(),
		Ambiguous: pattern.NewSet(),
		Values:    make(map[string]float64),
		Spreads:   make(map[string]float64),
		Labels:    make(map[string]chernoff.Label),
	}
	floor := cfg.MinMatch / 64
	maxSym := 0.0
	aliveSymbols := 0
	for d, v := range symbolMatch {
		if v > maxSym {
			maxSym = v
		}
		p := pattern.Pattern{pattern.Symbol(d)}
		key := p.Key()
		p2.Values[key] = v
		p2.Spreads[key] = v
		if v >= cfg.MinMatch {
			p2.Labels[key] = chernoff.Frequent
			p2.Frequent.Add(p)
			aliveSymbols++
		} else {
			p2.Labels[key] = chernoff.Infrequent
		}
		cfg.Metrics.Add(telemetry.Classified(int(p2.Labels[key])), 1)
	}
	p2.CandidatesPerLevel = append(p2.CandidatesPerLevel, c.Size())
	cfg.Metrics.LevelEvaluated(c.Size())
	p2.AlivePerLevel = append(p2.AlivePerLevel, aliveSymbols)
	if eps := cls.Epsilon(maxSym); eps >= cfg.MinMatch {
		return nil, fmt.Errorf("core: sample too small for sweep mining (ε=%v >= min_match=%v); grow the sample or use Mine", eps, cfg.MinMatch)
	}

	sampleDB := seqdb.NewMemDB(sample)
	alive := aliveSymbols
	for k := 2; k <= cfg.MaxLen && alive > 0; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sums, err := match.LevelSweep(sampleDB, c, k, cfg.MaxLen, cfg.MaxGap, floor)
		if err != nil {
			return nil, err
		}
		alive = 0
		p2.CandidatesPerLevel = append(p2.CandidatesPerLevel, len(sums))
		cfg.Metrics.LevelEvaluated(len(sums))
		for key, sum := range sums {
			v := sum / float64(n)
			p, err := pattern.ParseKey(key)
			if err != nil {
				return nil, err
			}
			spread := chernoff.RestrictedSpread(p, symbolMatch)
			p2.Values[key] = v
			p2.Spreads[key] = spread
			// The floor undercount can only push a value down; widen the
			// ambiguous band accordingly on the low side.
			switch {
			case v > cfg.MinMatch+cls.Epsilon(spread):
				p2.Labels[key] = chernoff.Frequent
				p2.Frequent.Add(p)
				alive++
			case v < cfg.MinMatch-cls.Epsilon(spread)-floor:
				p2.Labels[key] = chernoff.Infrequent
			default:
				p2.Labels[key] = chernoff.Ambiguous
				p2.Ambiguous.Add(p)
				alive++
			}
			cfg.Metrics.Add(telemetry.Classified(int(p2.Labels[key])), 1)
		}
		p2.AlivePerLevel = append(p2.AlivePerLevel, alive)
	}
	return p2, nil
}
