// Package core orchestrates the paper's three-phase probabilistic mining
// algorithm (§4):
//
//  1. one scan of the sequence database computing every symbol's exact match
//     and drawing a random sample (Algorithm 4.1),
//  2. in-memory level-wise mining of the sample, classifying patterns as
//     frequent / ambiguous / infrequent with the Chernoff bound and the
//     restricted spread (Algorithm 4.2, Claims 4.1/4.2),
//  3. finalizing the border of frequent patterns by probing the ambiguous
//     region against the full database — by border collapsing (Algorithm
//     4.3, the paper's contribution) or level-wise (the Toivonen-style
//     baseline), under a memory budget of counters per scan.
//
// The database is only ever accessed through seqdb.Scanner, so the number of
// full passes — the paper's headline cost metric — is directly observable.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/border"
	"repro/internal/compat"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
	"repro/internal/support"
	"repro/internal/telemetry"
)

// Finalizer selects the Phase 3 strategy.
type Finalizer int

const (
	// BorderCollapsing probes halfway layers first (Algorithm 4.3).
	BorderCollapsing Finalizer = iota
	// LevelWise probes the ambiguous region bottom-up (sampling-based
	// level-wise search, the §5.6 baseline).
	LevelWise
	// None skips Phase 3: the result is Phase 2's frequent set, with the
	// ambiguous patterns left unresolved (useful for sample-only studies).
	None
	// BorderCollapsingImplicit is the paper-verbatim Algorithm 4.3: probe
	// layers are generated between the Phase 2 borders with Algorithm 4.4,
	// and the ambiguous region is never materialized. Its lattice is the
	// paper's full sub-pattern closure — starring any subset of positions —
	// so when MaxGap < MaxLen-2 it legitimately resolves gapped patterns
	// the truncated candidate space never enumerated (all genuinely
	// frequent by Apriori). With MaxGap >= MaxLen-2 the spaces coincide and
	// the Border equals BorderCollapsing's exactly; Frequent is always the
	// downward closure of Border.
	BorderCollapsingImplicit
)

// String names the finalizer for experiment output.
func (f Finalizer) String() string {
	switch f {
	case BorderCollapsing:
		return "border-collapsing"
	case LevelWise:
		return "level-wise"
	case None:
		return "none"
	case BorderCollapsingImplicit:
		return "border-collapsing-implicit"
	default:
		return fmt.Sprintf("Finalizer(%d)", int(f))
	}
}

// Pipeline names, recorded in checkpoints so Resume can dispatch to the
// pipeline that wrote the snapshot. engineGrowth only appears in snapshots
// written while the growth engine was a user-selected option; those resume
// through the candidates pipeline.
const (
	engineCandidates = "candidates"
	engineSweep      = "sweep"
	engineGrowth     = "growth"
)

// Phase2Engine selects the candidate-driven pipeline's Phase 2 engine.
// Every value yields the same result, so it is a tuning knob excluded from
// the checkpoint config hash; the explicit values exist for tests,
// lspverify and lspbench.
type Phase2Engine int

const (
	// Phase2Auto (the default) picks the engine from the Phase 1 sample with
	// PickPhase2Engine.
	Phase2Auto Phase2Engine = iota
	// Phase2Levelwise is the paper's breadth-first generate-and-test miner:
	// each lattice level's candidates are generated from the previous
	// level's survivors and valued in one batch (miner.Engine with the kernel
	// selected by Phase2Kernel).
	Phase2Levelwise
	// Phase2Growth is the depth-first pattern-growth engine: patterns grow
	// by prefix extension over projected sample databases, with optimistic
	// bound pruning (internal/growth). It produces the same labels, borders
	// and level counts as Phase2Levelwise — bit-identical for every worker
	// count — while skipping the per-level candidate materialization. A
	// level with more than MaxCandidatesPerLevel candidates hands the run
	// back to Phase2Levelwise, whose truncation defines the result.
	// Phase2Kernel still selects the valuation discipline: KernelIncremental
	// walks projections, KernelNaive recompiles every candidate from scratch.
	Phase2Growth
)

// String names the engine for experiment output and reports.
func (e Phase2Engine) String() string {
	switch e {
	case Phase2Auto:
		return "auto"
	case Phase2Levelwise:
		return "levelwise"
	case Phase2Growth:
		return "growth"
	default:
		return fmt.Sprintf("Phase2Engine(%d)", int(e))
	}
}

// GrowthLengthRatio is PickPhase2Engine's threshold: pattern growth runs
// when the sample's mean sequence length is at least this many times the
// alphabet size (DESIGN "Pattern-growth Phase 2" holds the table behind it).
const GrowthLengthRatio = 3

// PickPhase2Engine is Phase2Auto's rule. Growth values a child at
// O(alphabet) per sequence where the level-wise kernel pays O(windows), so
// it wins once sequences are long relative to the alphabet: it is picked
// when the sample's mean length is at least GrowthLengthRatio × m. The
// choice depends only on the sample and the alphabet size, so a resumed run
// picks the engine the interrupted run picked.
func PickPhase2Engine(sample [][]pattern.Symbol, m int) Phase2Engine {
	total := 0
	for _, seq := range sample {
		total += len(seq)
	}
	if len(sample) > 0 && total >= GrowthLengthRatio*m*len(sample) {
		return Phase2Growth
	}
	return Phase2Levelwise
}

// Phase2Kernel selects how the candidate-driven Phase 2 scores each lattice
// level against the in-memory sample.
type Phase2Kernel int

const (
	// KernelIncremental (the default) extends the cached per-sequence window
	// prefix products of the previous level — one row lookup and one multiply
	// per surviving window per candidate — with the sample sharded across
	// Config.Workers goroutines. See match.Incremental; per-sequence values
	// are bit-identical to the naive kernel's, sample averages agree within
	// float64 sum reassociation.
	KernelIncremental Phase2Kernel = iota
	// KernelNaive recompiles every candidate and rescans the whole sample at
	// each level (miner.MatchSampleValuer) — the pre-kernel behavior, kept
	// for verification and comparison benchmarks.
	KernelNaive
)

// String names the kernel for experiment output.
func (k Phase2Kernel) String() string {
	switch k {
	case KernelIncremental:
		return "incremental"
	case KernelNaive:
		return "naive"
	default:
		return fmt.Sprintf("Phase2Kernel(%d)", int(k))
	}
}

// PhaseTimeouts assigns each pipeline phase a wall-clock budget; zero means
// unlimited. Phase 1 and Phase 2 budgets are hard deadlines — expiry fails
// the run with a *PhaseError wrapping context.DeadlineExceeded (with
// checkpointing enabled, completed work is preserved first). The Phase 3
// budget degrades gracefully instead: the run returns the Phase 2 frequent
// set plus everything Phase 3 confirmed before the deadline, with the
// still-ambiguous patterns annotated in Result.Unresolved and
// Result.Degraded set.
type PhaseTimeouts struct {
	Phase1, Phase2, Phase3 time.Duration
}

func (t PhaseTimeouts) validate() error {
	if t.Phase1 < 0 || t.Phase2 < 0 || t.Phase3 < 0 {
		return fmt.Errorf("core: negative phase timeout")
	}
	return nil
}

// Config parameterizes a mining run. Zero values select sensible defaults
// where noted.
type Config struct {
	// MinMatch is the significance threshold (required, in (0,1]).
	MinMatch float64
	// Delta is the Chernoff failure probability; confidence is 1-Delta.
	// Default 1e-4 (the paper's 99.99%).
	Delta float64
	// SampleSize is the number of sequences sampled in Phase 1 (clamped to
	// the database size). Default 1000.
	SampleSize int
	// MaxLen bounds total pattern length (required, >= 1).
	MaxLen int
	// MaxGap bounds runs of eternal symbols inside a pattern. Default 0.
	MaxGap int
	// MaxCandidatesPerLevel caps Phase 2's per-level candidate count
	// (0 = unlimited). A level over it is truncated by the level-wise
	// engine; the growth engine hands such a run back to level-wise.
	MaxCandidatesPerLevel int
	// MemBudget is the number of pattern counters Phase 3 may hold per scan.
	// Default 10000.
	MemBudget int
	// Finalizer selects the Phase 3 strategy. Default BorderCollapsing.
	Finalizer Finalizer
	// Workers > 1 matches each Phase 3 probe scan's blocks on that many
	// goroutines (-1 = GOMAXPROCS); the scan itself remains one sequential
	// pass. A shard set is instead scanned up to Workers shards at once
	// (0 = up to GOMAXPROCS). The same count shards Phase 2's incremental
	// kernel across the sample. Results are identical for every worker
	// count. Default 0 (inline, save for a shard set's concurrent scans).
	Workers int
	// Remote, when non-nil, serves Phase 3's probe scans from remote shard
	// nodes (lspserve -serve-shards): each probe batch is sent one shard per
	// node, or per shard of a native shard set, and the partials come back
	// bit-identical to a local run's (see miner.ProbeValuer). Like Workers it
	// changes how scans execute, never what is mined, so it is excluded from
	// the checkpoint config hash and a local run can resume a remote one and
	// vice versa.
	Remote *shardrpc.Pool
	// Phase2Kernel selects the sample-scoring kernel for the
	// candidate-driven Phase 2. Default KernelIncremental. A tuning knob:
	// classifications agree between kernels, so it is excluded from the
	// checkpoint config hash.
	Phase2Kernel Phase2Kernel
	// Phase2Engine selects the Phase 2 engine of the candidate-driven
	// pipeline. Default Phase2Auto, which picks it from the sample
	// (PickPhase2Engine); the explicit values are for tests and benchmarks.
	// Results are identical for every value, so it is excluded from the
	// checkpoint config hash. Result.Phase2Engine names the engine that ran.
	Phase2Engine Phase2Engine
	// Phase2CacheBudget bounds Phase 2's cache in bytes (negative =
	// unlimited). For the level-wise incremental kernel it bounds the prefix
	// cache (0 = match.DefaultCacheBudget, 256 MiB), and exceeding it falls
	// back to compiled-matcher recomputation for the overflowing patterns.
	// For the growth engine it bounds the projections cached across all
	// workers (0 = growth.DefaultBudget, 32 MiB). Either way a smaller
	// budget is slower, never wrong.
	Phase2CacheBudget int64
	// Rng drives the sampling; required for reproducibility.
	Rng *rand.Rand
	// Metrics, when non-nil, collects pipeline telemetry: per-phase scan
	// traffic and wall time, sample size, lattice and probe counters. The
	// database is transparently wrapped to attribute scan traffic to the
	// phase that caused it. Nil (the default) disables collection entirely —
	// the instrumented paths cost one nil check each.
	Metrics *telemetry.Metrics
	// Checkpoint, when non-nil, persists pipeline progress to
	// Checkpoint.Path as a crash-atomic snapshot (after Phase 1, after
	// Phase 2, and — by default — after every Phase 3 probe scan), and a
	// final snapshot is written before a failed or cancelled run returns
	// its *PhaseError. Resume the run with core.Resume. Nil disables
	// checkpointing.
	Checkpoint *CheckpointPolicy
	// PhaseTimeouts bounds each phase's wall time (zero = unlimited). The
	// Phase 3 budget degrades gracefully rather than failing; see
	// PhaseTimeouts.
	PhaseTimeouts PhaseTimeouts
}

// probeValuer is the Phase 3 valuer: the one gather of miner.ProbeValuer,
// cancellable through ctx and retry-safe when db re-runs failed passes. The
// layout comes from the store (or from Remote); a sharded layout records its
// own telemetry, since it scans the shards directly rather than through the
// telemetry wrapper.
func (c *Config) probeValuer(ctx context.Context, db seqdb.Scanner, src compat.Source) miner.Valuer {
	return miner.ProbeValuer(ctx, db, src, c.Workers, c.Remote, c.Metrics)
}

func (c *Config) setDefaults() {
	if c.Delta == 0 {
		c.Delta = 1e-4
	}
	if c.SampleSize == 0 {
		c.SampleSize = 1000
	}
	if c.MemBudget == 0 {
		c.MemBudget = 10000
	}
}

func (c *Config) validate() error {
	if c.MinMatch <= 0 || c.MinMatch > 1 {
		return fmt.Errorf("core: MinMatch %v outside (0,1]", c.MinMatch)
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		return fmt.Errorf("core: Delta %v outside (0,1)", c.Delta)
	}
	if c.SampleSize < 1 {
		return fmt.Errorf("core: SampleSize %d < 1", c.SampleSize)
	}
	if c.MaxLen < 1 {
		return fmt.Errorf("core: MaxLen %d < 1", c.MaxLen)
	}
	if c.MaxGap < 0 {
		return fmt.Errorf("core: negative MaxGap")
	}
	if c.MemBudget < 1 {
		return fmt.Errorf("core: MemBudget %d < 1", c.MemBudget)
	}
	if c.Rng == nil {
		return fmt.Errorf("core: Rng is required")
	}
	if c.Finalizer < BorderCollapsing || c.Finalizer > BorderCollapsingImplicit {
		return fmt.Errorf("core: unknown finalizer %d", c.Finalizer)
	}
	if c.Phase2Kernel < KernelIncremental || c.Phase2Kernel > KernelNaive {
		return fmt.Errorf("core: unknown Phase 2 kernel %d", c.Phase2Kernel)
	}
	if c.Phase2Engine < Phase2Auto || c.Phase2Engine > Phase2Growth {
		return fmt.Errorf("core: unknown Phase 2 engine %d", c.Phase2Engine)
	}
	if err := c.PhaseTimeouts.validate(); err != nil {
		return err
	}
	if c.Checkpoint != nil && c.Checkpoint.Path == "" {
		return fmt.Errorf("core: Checkpoint.Path is required when checkpointing is enabled")
	}
	return nil
}

// PhaseError attributes a mining failure — an I/O error, corruption, or a
// context cancellation — to the pipeline phase that raised it. It unwraps
// to the underlying cause, so errors.Is(err, context.Canceled) and
// errors.As for seqdb.CorruptError keep working through it.
type PhaseError struct {
	// Phase is the pipeline phase that failed (1, 2, or 3).
	Phase int
	// Err is the underlying failure.
	Err error
}

func (e *PhaseError) Error() string { return fmt.Sprintf("core: phase %d: %v", e.Phase, e.Err) }

func (e *PhaseError) Unwrap() error { return e.Err }

// Result reports a complete mining run.
type Result struct {
	// Frequent is the final frequent set and Border its border (FQT).
	Frequent *pattern.Set
	Border   *pattern.Set
	// SymbolMatch holds Phase 1's exact per-symbol matches.
	SymbolMatch []float64
	// SampleSize is the number of sequences actually sampled.
	SampleSize int
	// Phase2 is the sample-mining result (labels, borders, level counts).
	Phase2 *miner.Result
	// Phase2Engine names the engine that produced Phase2: "levelwise" or
	// "growth" (Phase2Engine.String), or "sweep" for MineSweep. A growth
	// run that handed a capped level back is "levelwise". The name is
	// derived from the sample and Phase2 alone, so a run resumed past
	// Phase 2 reports the engine the interrupted run used.
	Phase2Engine string
	// Phase3 is the finalization result (nil when Finalizer is None or no
	// ambiguous patterns remained).
	Phase3 *border.Result
	// Scans is the total number of full database scans (Phase 1's single
	// scan plus Phase 3's probe scans).
	Scans int
	// Phase timings, for the Figure 14 CPU-time comparison.
	Phase1Time, Phase2Time, Phase3Time time.Duration
	// PhaseReached is the highest phase that started (1..3) — on a failed
	// or cancelled run, the phase the run died in.
	PhaseReached int
	// ScanStats reports the scanner's pass/retry/error counters when db
	// implements seqdb.StatsReporter (e.g. a seqdb.RetryScanner); zero
	// otherwise.
	ScanStats seqdb.ScanStats
	// Telemetry aliases Config.Metrics for the run (nil when collection was
	// disabled); render it with Telemetry.Snapshot().
	Telemetry *telemetry.Metrics
	// Degraded reports that Phase 3 could not finish — its deadline budget
	// expired, or a distributed probe lost a shard — and the result was
	// assembled from the work completed: Frequent holds the Phase 2
	// frequent set plus every pattern Phase 3 confirmed in time, and
	// Unresolved annotates the patterns left ambiguous.
	Degraded bool
	// DegradeReason identifies what degraded the run (DegradePhase3Timeout
	// or DegradeShardLost; empty for complete runs).
	DegradeReason string
	// Unresolved lists the still-ambiguous patterns of a degraded run with
	// their sample estimates and Chernoff intervals (empty otherwise).
	Unresolved []Unresolved
	// ResumedFrom is the highest phase the resumed-from checkpoint had
	// recorded (0 for a fresh run).
	ResumedFrom int
	// ScansSkipped is the number of full database scans this run avoided by
	// resuming from a checkpoint (Phase 1's scan plus recorded probe
	// scans). Scans reports the run's logical total, so a resumed run's
	// Scans matches the uninterrupted run's; the scans actually performed
	// by this process are Scans - ScansSkipped.
	ScansSkipped int
}

// Degradation reasons (machine-readable, kebab-case).
const (
	// DegradePhase3Timeout: the Phase 3 wall-clock budget expired.
	DegradePhase3Timeout = "phase3-timeout"
	// DegradeShardLost: a distributed probe exhausted every node for some
	// shard (shardrpc.ErrShardLost); the run is resumable from its final
	// checkpoint once the shard set is reachable again.
	DegradeShardLost = "shard-lost"
)

// Unresolved is an ambiguous pattern a degraded run could not finalize
// before its Phase 3 deadline. The pattern's true match lies within
// [SampleMatch-Epsilon, SampleMatch+Epsilon] with probability 1-Delta
// (Claim 4.1 with the restricted spread) — the information a Finalizer ==
// None run would report.
type Unresolved struct {
	Pattern pattern.Pattern
	// SampleMatch is Phase 2's sample estimate of the pattern's match.
	SampleMatch float64
	// Epsilon is the Chernoff half-width at the pattern's restricted spread.
	Epsilon float64
}

// captureScanStats copies the scanner's retry counters into the result when
// the scanner tracks them.
func (r *Result) captureScanStats(db seqdb.Scanner) {
	if sr, ok := db.(seqdb.StatsReporter); ok {
		r.ScanStats = sr.ScanStats()
	}
}

// Mine runs the full three-phase algorithm over db with the compatibility
// source c.
func Mine(db seqdb.Scanner, c compat.Source, cfg Config) (*Result, error) {
	return MineContext(context.Background(), db, c, cfg)
}

// MineContext is Mine with cooperative cancellation: ctx is checked between
// sequences in Phase 1's scan, between lattice levels in Phase 2, and
// between (and within) probe scans in Phase 3, so a cancelled run aborts
// within one sequence block. Any phase failure — cancellation, I/O error,
// corruption — is returned as a *PhaseError naming the phase, wrapping the
// cause (errors.Is(err, context.Canceled) holds for cancelled runs).
//
// On a phase failure the partial Result is returned alongside the error: it
// carries PhaseReached, the phases' outputs completed so far, and the
// scanner's ScanStats, so callers (e.g. a SIGINT handler) can report how far
// the run got.
//
// When db re-runs failed passes (a seqdb.RetryScanner over a flaky store),
// every scan in the pipeline is retry-safe: per-pass counting state is
// rebuilt per attempt, and only completed passes count toward Scans.
//
// With cfg.Checkpoint set, progress is persisted to disk as it is made and a
// killed run can be continued with Resume; cfg.PhaseTimeouts bounds each
// phase's wall time, with a Phase 3 expiry degrading gracefully (see
// PhaseTimeouts and Result.Degraded).
func MineContext(ctx context.Context, db seqdb.Scanner, c compat.Source, cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return mineContext(ctx, db, c, cfg, engineCandidates, nil)
}

// implicitLower assembles CollapseImplicit's lower border: the FQT plus the
// frequent 1-patterns, which the implicit layer generation needs as
// generators beneath every region member.
func implicitLower(p2 *miner.Result) *pattern.Set {
	lower := p2.FQT.Clone()
	p2.Frequent.ForEach(func(p pattern.Pattern) bool {
		if p.K() == 1 {
			lower.Add(p)
		}
		return true
	})
	return lower
}

// Phase1 performs Algorithm 4.1: one scan computing every symbol's match and
// drawing a sequential random sample of up to n sequences.
func Phase1(db seqdb.Scanner, c compat.Source, n int, rng *rand.Rand) ([]float64, [][]pattern.Symbol, error) {
	return Phase1Context(nil, db, c, n, rng)
}

// Phase1Context is Phase1 with cancellation checked between sequences. The
// accumulator and sampler are rebuilt per scan attempt, so a retrying
// scanner can re-run a failed pass without double-counting; a retried pass
// redraws its sample with fresh rng draws (statistically equivalent).
func Phase1Context(ctx context.Context, db seqdb.Scanner, c compat.Source, n int, rng *rand.Rand) ([]float64, [][]pattern.Symbol, error) {
	symbolMatch, sample, _, err := phase1Run(ctx, db, c, n, rng)
	return symbolMatch, sample, err
}

// Exhaustive mines the exact frequent set of db under the match measure with
// one scan per lattice level — the deterministic reference the experiments
// compare against (and the generalization of prior support-model algorithms
// the paper discusses in §4's opening).
func Exhaustive(db seqdb.Scanner, c compat.Source, minMatch float64, opts miner.Options) (*miner.Result, error) {
	return miner.Exhaustive(c.Size(), miner.MatchDBValuer(db, c), minMatch, opts)
}

// ExhaustiveSupport mines the exact frequent set under the classic support
// measure (the §5.1 comparison model).
func ExhaustiveSupport(db seqdb.Scanner, minSupport float64, m int, opts miner.Options) (*miner.Result, error) {
	return miner.Exhaustive(m, miner.DBValuer(db, support.Support{}), minSupport, opts)
}
