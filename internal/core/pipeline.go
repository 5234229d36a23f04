// The three-phase pipeline behind Mine and Resume: one orchestration loop
// handles phase timing and attribution, checkpointing, resume (skipping
// every scan a snapshot records), per-phase deadline budgets, and Phase 3's
// graceful degradation.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/border"
	"repro/internal/checkpoint"
	"repro/internal/chernoff"
	"repro/internal/compat"
	"repro/internal/growth"
	"repro/internal/levelwise"
	"repro/internal/match"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/sampling"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
	"repro/internal/telemetry"
)

// phaseCtx derives a phase-budget context; a zero budget passes the parent
// through with a no-op cancel.
func phaseCtx(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	if d <= 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, d)
}

// mineContext runs the pipeline, fresh (snap nil) or resumed from a
// snapshot whose compatibility the caller has verified; engine is the
// pipeline name the snapshot records. cfg must already be defaulted and
// validated.
func mineContext(ctx context.Context, db seqdb.Scanner, c compat.Source, cfg Config, engine string, snap *checkpoint.Snapshot) (*Result, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	dbPath := scannerPath(db)
	if cfg.Metrics != nil {
		// The wrapper attributes every delivered sequence and completed pass
		// to whatever phase is current when it happens.
		db = telemetry.NewScanner(db, cfg.Metrics)
		defer cfg.Metrics.SetPhase(0)
	}
	res := &Result{Telemetry: cfg.Metrics}
	cp := newCheckpointer(&cfg, configHash(&cfg, engine), dbPath, db.Len(), engine)
	if snap != nil {
		cp.adopt(snap)
		res.ResumedFrom = snap.Phase
		res.ScansSkipped = 1 // Phase 1's scan is always recorded
		if snap.Probe != nil {
			res.ScansSkipped += snap.Probe.Scans
		}
		cfg.Metrics.ResumeHit(snap.Phase, res.ScansSkipped)
	}
	fail := func(phase int, err error) (*Result, error) {
		res.PhaseReached = phase
		res.captureScanStats(db)
		cp.finalWrite()
		return res, &PhaseError{Phase: phase, Err: err}
	}

	// Phase 1: symbol matches + sample, one scan — replayed from the
	// snapshot on resume.
	res.PhaseReached = 1
	cfg.Metrics.SetPhase(1)
	start := time.Now()
	var symbolMatch []float64
	var sample [][]pattern.Symbol
	if snap != nil {
		symbolMatch, sample = snap.SymbolMatch, snap.Sample
	} else {
		pctx, cancel := phaseCtx(ctx, cfg.PhaseTimeouts.Phase1)
		sm, smp, draws, err := phase1Run(pctx, db, c, cfg.SampleSize, cfg.Rng)
		cancel()
		if err != nil {
			cfg.Metrics.PhaseTime(1, time.Since(start))
			return fail(1, err)
		}
		symbolMatch, sample = sm, smp
		if err := cp.notePhase1(symbolMatch, sample, draws); err != nil {
			return fail(1, err)
		}
	}
	res.SymbolMatch = symbolMatch
	res.SampleSize = len(sample)
	cfg.Metrics.Set(telemetry.SampleSize, int64(len(sample)))
	res.Scans = 1
	res.Phase1Time = time.Since(start)
	cfg.Metrics.PhaseTime(1, res.Phase1Time)

	// Phase 2: sample classification — rebuilt from the snapshot on resume
	// (sets and borders are deterministic functions of the stored labels).
	res.PhaseReached = 2
	cfg.Metrics.SetPhase(2)
	start = time.Now()
	var p2 *miner.Result
	var err error
	if snap != nil && snap.Phase >= 2 {
		p2, err = phase2FromSnapshot(snap.Phase2)
		if err != nil {
			return fail(2, err)
		}
	} else {
		pctx, cancel := phaseCtx(ctx, cfg.PhaseTimeouts.Phase2)
		p2, err = phase2Candidates(pctx, c, &cfg, symbolMatch, sample)
		cancel()
		if err != nil {
			cfg.Metrics.PhaseTime(2, time.Since(start))
			return fail(2, err)
		}
		if err := cp.notePhase2(p2); err != nil {
			return fail(2, err)
		}
	}
	res.Phase2 = p2
	ran := cfg.phase2Ran(sample, c.Size(), p2)
	res.Phase2Engine = ran.String()
	if snap != nil && snap.Phase >= 2 && ran == Phase2Levelwise {
		p2.Scans = len(p2.CandidatesPerLevel) // one sample-valuer call per level
	}
	res.Phase2Time = time.Since(start)
	cfg.Metrics.PhaseTime(2, res.Phase2Time)

	// Phase 3: finalize the border against the full database.
	res.PhaseReached = 3
	cfg.Metrics.SetPhase(3)
	start = time.Now()
	if cfg.Finalizer == None || p2.Ambiguous.Len() == 0 {
		res.Frequent = p2.Frequent.Clone()
		res.Border = pattern.Border(res.Frequent)
		res.Phase3Time = time.Since(start)
		cfg.Metrics.PhaseTime(3, res.Phase3Time)
		res.captureScanStats(db)
		return res, nil
	}
	pctx, cancel := phaseCtx(ctx, cfg.PhaseTimeouts.Phase3)
	defer cancel()
	probeCfg := border.Config{
		MinMatch:  cfg.MinMatch,
		MemBudget: cfg.MemBudget,
		Probe:     cfg.probeValuer(pctx, db, c),
		Ctx:       pctx,
		Metrics:   cfg.Metrics,
	}
	if cp != nil {
		probeCfg.AfterScan = cp.noteProbe
	}
	var st *border.State
	if snap != nil && snap.Phase >= 3 {
		st, err = stateFromSnapshot(snap.Probe)
		if err != nil {
			return fail(3, err)
		}
	} else {
		st = border.NewState(p2.Frequent, p2.Ambiguous)
	}
	pick := border.PickHalfway
	if cfg.Finalizer == LevelWise {
		pick = levelwise.PickBottomUp
	}
	res.Phase3, err = border.FinalizeState(probeCfg, st, pick)
	cfg.Metrics.PhaseTime(3, time.Since(start))
	if err != nil {
		callerAlive := ctx == nil || ctx.Err() == nil
		switch {
		case callerAlive && pctx.Err() != nil && errors.Is(err, context.DeadlineExceeded):
			// The Phase 3 budget expired while the caller's context is
			// still alive: degrade gracefully instead of failing.
			res.DegradeReason = DegradePhase3Timeout
			return degrade(res, &cfg, cp, db, p2, st, time.Since(start))
		case callerAlive && errors.Is(err, shardrpc.ErrShardLost):
			// A distributed probe exhausted every node for some shard:
			// surface what Phase 3 confirmed plus the pending intervals and
			// checkpoint, so the exact run resumes once the shard returns.
			res.DegradeReason = DegradeShardLost
			return degrade(res, &cfg, cp, db, p2, st, time.Since(start))
		}
		return fail(3, err)
	}
	res.Frequent = res.Phase3.Frequent
	res.Border = res.Phase3.Border
	res.Scans += res.Phase3.Scans
	res.Phase3Time = time.Since(start)
	res.captureScanStats(db)
	return res, nil
}

// degrade assembles the graceful Phase 3-budget-expiry result: the Phase 2
// frequent set plus everything the probe loop confirmed and propagated in
// time, with the still-pending patterns annotated by their sample estimate
// and Chernoff interval — exactly what a Finalizer == None run would report
// for them. A final checkpoint is flushed so a later Resume can finish the
// collapse.
func degrade(res *Result, cfg *Config, cp *checkpointer, db seqdb.Scanner, p2 *miner.Result, st *border.State, elapsed time.Duration) (*Result, error) {
	res.Degraded = true
	res.Scans += st.Scans
	res.Frequent = st.Frequent
	res.Border = pattern.Border(st.Frequent)
	epsilon := func(spread float64) float64 { return 1 } // vacuous fallback
	if cls, err := chernoff.NewClassifier(cfg.MinMatch, cfg.Delta, res.SampleSize); err == nil {
		epsilon = cls.Epsilon
	}
	for _, p := range st.Pending.Patterns() {
		key := p.Key()
		res.Unresolved = append(res.Unresolved, Unresolved{
			Pattern:     p,
			SampleMatch: p2.Values[key],
			Epsilon:     epsilon(p2.Spreads[key]),
		})
	}
	res.Phase3Time = elapsed
	res.captureScanStats(db)
	cp.finalWrite()
	return res, nil
}

// phase1Run is Phase 1 (Algorithm 4.1) reporting the RNG draws consumed, so
// a checkpoint can restore the generator's exact post-scan state.
func phase1Run(ctx context.Context, db seqdb.Scanner, c compat.Source, n int, rng *rand.Rand) ([]float64, [][]pattern.Symbol, uint64, error) {
	var acc *match.SymbolAccumulator
	var sampler *sampling.Sequential
	var delivered int
	var priorDraws uint64
	err := seqdb.ScanPassContext(ctx, db, func() (func(id int, seq []pattern.Symbol) error, error) {
		if sampler != nil {
			// A retried pass redraws its sample from the same generator;
			// the failed attempt's draws are part of its history.
			priorDraws += sampler.Draws()
		}
		a := match.NewSymbolAccumulator(c)
		s, err := sampling.NewSequential(n, db.Len(), rng)
		if err != nil {
			return nil, err
		}
		acc, sampler = a, s
		delivered = 0
		return func(id int, seq []pattern.Symbol) error {
			delivered++
			a.Observe(seq)
			s.Offer(seq)
			return nil
		}, nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	// Average over the sequences the scan delivered (db.Len() may be stale
	// for some scanners; the stream is the ground truth).
	return acc.Matches(delivered), sampler.Samples(), priorDraws + sampler.Draws(), nil
}

// phase2Engine resolves Config.Phase2Engine for a sample: the explicit
// engine, or PickPhase2Engine's choice under Phase2Auto.
func (c *Config) phase2Engine(sample [][]pattern.Symbol, m int) Phase2Engine {
	if c.Phase2Engine == Phase2Auto {
		return PickPhase2Engine(sample, m)
	}
	return c.Phase2Engine
}

// phase2Ran names the engine that produced the candidate-driven Phase 2
// result p2: the one picked for the sample, unless p2 is truncated — growth
// never truncates, so that run was handed back to the level-wise engine at
// the candidate cap. It reads only the sample and the result, so a run
// resumed from a Phase 2 snapshot names the engine the interrupted run used.
func (c *Config) phase2Ran(sample [][]pattern.Symbol, m int, p2 *miner.Result) Phase2Engine {
	if p2.Truncated {
		return Phase2Levelwise
	}
	return c.phase2Engine(sample, m)
}

// phase2Candidates is the candidate-driven Phase 2 (Algorithm 4.2) under the
// engine cfg picks for the sample. When growth stops at a level over
// MaxCandidatesPerLevel, Phase 2 is re-run level-wise, so the result is
// always the level-wise engine's, truncation included.
func phase2Candidates(ctx context.Context, c compat.Source, cfg *Config, symbolMatch []float64, sample [][]pattern.Symbol) (*miner.Result, error) {
	if cfg.phase2Engine(sample, c.Size()) == Phase2Growth {
		p2, err := phase2Growth(ctx, c, cfg, symbolMatch, sample)
		var capped *growth.CapError
		if !errors.As(err, &capped) {
			return p2, err
		}
		cfg.Metrics.Add(telemetry.GrowthCapFallbacks, 1)
	}
	return phase2Levelwise(ctx, c, cfg, symbolMatch, sample)
}

// phase2Levelwise is the breadth-first Phase 2: each level is scored by the
// match.Incremental projection kernel across cfg.Workers, plus what cfg.Lend
// lends each of the level's parallel sections; the kernel's cache is
// released as soon as the level-wise run returns.
func phase2Levelwise(ctx context.Context, c compat.Source, cfg *Config, symbolMatch []float64, sample [][]pattern.Symbol) (*miner.Result, error) {
	opts := miner.Options{
		MaxLen:                cfg.MaxLen,
		MaxGap:                cfg.MaxGap,
		MaxCandidatesPerLevel: cfg.MaxCandidatesPerLevel,
		Metrics:               cfg.Metrics,
	}
	valuer, inc := miner.IncrementalSampleValuer(c, sample, miner.IncrementalConfig{
		Workers: cfg.Workers,
		Metrics: cfg.Metrics,
		Lend:    cfg.Lend,
	})
	defer inc.Release()
	return miner.SampleChernoffContext(ctx, c.Size(), valuer,
		symbolMatch, cfg.MinMatch, cfg.Delta, len(sample), opts)
}

// phase2Growth is the depth-first pattern-growth Phase 2: same labels,
// borders and level counts as phase2Levelwise (bit-identical for every
// worker count), with candidates valued over projected sample databases and
// bound-pruned subtrees never valued at all. A level over the candidate cap
// returns a *growth.CapError.
func phase2Growth(ctx context.Context, c compat.Source, cfg *Config, symbolMatch []float64, sample [][]pattern.Symbol) (*miner.Result, error) {
	return growth.Mine(c, sample, growth.Config{
		SymbolMatch:           symbolMatch,
		MinMatch:              cfg.MinMatch,
		Delta:                 cfg.Delta,
		MaxLen:                cfg.MaxLen,
		MaxGap:                cfg.MaxGap,
		Workers:               cfg.Workers,
		Metrics:               cfg.Metrics,
		Ctx:                   ctx,
		MaxCandidatesPerLevel: cfg.MaxCandidatesPerLevel,
	})
}
