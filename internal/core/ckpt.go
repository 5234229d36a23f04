// Checkpoint/resume glue: the policy knob on Config, the pipeline-side
// checkpointer that mirrors progress into a checkpoint.Snapshot and persists
// it crash-atomically, the snapshot <-> pipeline-state conversions, and
// Resume, which restarts an interrupted run from its snapshot without
// repeating any completed full database scan.
package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/border"
	"repro/internal/checkpoint"
	"repro/internal/chernoff"
	"repro/internal/compat"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// CheckpointInterval selects how often an enabled checkpoint is rewritten.
type CheckpointInterval int

const (
	// IntervalProbeScan (the default) writes after Phase 1, after Phase 2,
	// and after every completed Phase 3 probe scan — the finest durability
	// the scan-granular pipeline supports: at most one full scan is ever
	// lost to a crash.
	IntervalProbeScan CheckpointInterval = iota
	// IntervalPhase writes only at phase boundaries (and in a final
	// best-effort flush when a run fails or degrades), trading Phase 3
	// durability for fewer writes on runs with many probe scans.
	IntervalPhase
)

// CheckpointPolicy configures durable progress snapshots; see
// Config.Checkpoint.
type CheckpointPolicy struct {
	// Path is the snapshot file (required). Writes are crash-atomic: a
	// crash mid-write leaves the previous snapshot intact.
	Path string
	// Interval selects the write points. Default IntervalProbeScan.
	Interval CheckpointInterval
	// Seed is the seed Config.Rng was created from, recorded in the
	// snapshot together with the number of draws Phase 1 consumed so
	// Resume can restore an identical generator (*rand.Rand does not
	// expose its seed, so the caller must supply it). A run resumed past
	// Phase 1 replays the stored sample verbatim and never consults the
	// generator again, so an unknown seed only matters to callers who
	// continue drawing from the RNG after mining.
	Seed int64
	// AfterWrite, when non-nil, observes every successful snapshot write
	// with the phase it recorded — a hook for tests and progress UIs.
	AfterWrite func(phase int)
}

// ErrIncompatible reports that a snapshot was produced by a different
// configuration or database than the one offered to Resume.
var ErrIncompatible = errors.New("core: checkpoint incompatible with this run")

// configHash fingerprints every configuration field that shapes the mined
// result (tuning knobs like Workers, Remote, Phase2Kernel, Phase2Engine and
// Metrics are excluded — they change how the work is executed, never what
// is mined). Call after setDefaults so zero values hash like their explicit
// defaults.
func configHash(cfg *Config, engine string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%v|%d|%d|%d|%d|%d|%s|%s",
		cfg.MinMatch, cfg.Delta, cfg.SampleSize, cfg.MaxLen, cfg.MaxGap,
		cfg.MaxCandidatesPerLevel, cfg.MemBudget, cfg.Finalizer, engine)
	return h.Sum64()
}

// scannerPath reports the scanner's backing file when it has one (DiskDB,
// GzipDB, a RetryScanner over either); empty for in-memory stores.
func scannerPath(db seqdb.Scanner) string {
	if p, ok := db.(interface{ Path() string }); ok {
		return p.Path()
	}
	return ""
}

// checkpointer mirrors pipeline progress into a snapshot and persists it
// according to the policy. All methods are nil-receiver-safe, so the
// pipeline calls them unconditionally.
type checkpointer struct {
	policy *CheckpointPolicy
	cfg    *Config
	snap   *checkpoint.Snapshot
	dirty  bool
}

// newCheckpointer returns nil when checkpointing is disabled.
func newCheckpointer(cfg *Config, hash uint64, dbPath string, dbLen int, engine string) *checkpointer {
	if cfg.Checkpoint == nil {
		return nil
	}
	return &checkpointer{
		policy: cfg.Checkpoint,
		cfg:    cfg,
		snap: &checkpoint.Snapshot{
			ConfigHash: hash,
			DBPath:     dbPath,
			DBLen:      dbLen,
			Engine:     engine,
			Seed:       cfg.Checkpoint.Seed,
		},
	}
}

// adopt continues from a loaded snapshot instead of a fresh one.
func (cp *checkpointer) adopt(snap *checkpoint.Snapshot) {
	if cp == nil {
		return
	}
	cp.snap = snap
	cp.dirty = false
}

// write persists the snapshot if it changed since the last write.
func (cp *checkpointer) write() error {
	if cp == nil || !cp.dirty {
		return nil
	}
	start := time.Now()
	n, err := checkpoint.Save(cp.policy.Path, cp.snap)
	if err != nil {
		return fmt.Errorf("core: checkpoint write: %w", err)
	}
	cp.dirty = false
	cp.cfg.Metrics.CheckpointWrite(n, time.Since(start))
	if cp.policy.AfterWrite != nil {
		cp.policy.AfterWrite(cp.snap.Phase)
	}
	return nil
}

// notePhase1 records Phase 1's outputs and writes (phase boundaries write
// under every interval policy). The slices are aliased, not copied: the
// pipeline never mutates them after the phase completes.
func (cp *checkpointer) notePhase1(symbolMatch []float64, sample [][]pattern.Symbol, draws uint64) error {
	if cp == nil {
		return nil
	}
	cp.snap.Phase = 1
	cp.snap.SymbolMatch = symbolMatch
	cp.snap.Sample = sample
	cp.snap.RngDraws = draws
	cp.dirty = true
	return cp.write()
}

// notePhase2 records Phase 2's mining result and writes.
func (cp *checkpointer) notePhase2(p2 *miner.Result) error {
	if cp == nil {
		return nil
	}
	cp.snap.Phase = 2
	cp.snap.Phase2 = phase2ToSnapshot(p2)
	cp.dirty = true
	return cp.write()
}

// noteProbe records Phase 3's loop state after a completed probe scan; under
// IntervalProbeScan it also writes (IntervalPhase defers to finalWrite).
func (cp *checkpointer) noteProbe(st *border.State) error {
	if cp == nil {
		return nil
	}
	cp.snap.Phase = 3
	cp.snap.Probe = probeToSnapshot(st)
	cp.dirty = true
	if cp.policy.Interval == IntervalProbeScan {
		return cp.write()
	}
	return nil
}

// finalWrite best-effort-flushes any unpersisted progress before the run
// returns a failure or a degraded result. Errors are swallowed: the run is
// already surfacing its primary outcome.
func (cp *checkpointer) finalWrite() {
	if cp == nil || cp.snap.Phase == 0 {
		return
	}
	_ = cp.write()
}

// phase2ToSnapshot extracts the serializable core of a Phase 2 result. The
// sets and borders are deterministic functions of Labels and are recomputed
// by phase2FromSnapshot.
func phase2ToSnapshot(p2 *miner.Result) *checkpoint.Phase2State {
	ps := &checkpoint.Phase2State{
		Values:             make(map[string]float64, len(p2.Values)),
		Spreads:            make(map[string]float64, len(p2.Spreads)),
		Labels:             make(map[string]uint8, len(p2.Labels)),
		CandidatesPerLevel: append([]int(nil), p2.CandidatesPerLevel...),
		AlivePerLevel:      append([]int(nil), p2.AlivePerLevel...),
		Truncated:          p2.Truncated,
	}
	for k, v := range p2.Values {
		ps.Values[k] = v
	}
	for k, v := range p2.Spreads {
		ps.Spreads[k] = v
	}
	for k, l := range p2.Labels {
		ps.Labels[k] = uint8(l)
	}
	return ps
}

// phase2FromSnapshot rebuilds the full Phase 2 result: sets from the labels,
// borders from the sets. Scans is left 0; the pipeline sets it for the
// engine that produced the snapshot.
func phase2FromSnapshot(ps *checkpoint.Phase2State) (*miner.Result, error) {
	p2 := &miner.Result{
		Frequent:           pattern.NewSet(),
		Ambiguous:          pattern.NewSet(),
		Values:             make(map[string]float64, len(ps.Values)),
		Spreads:            make(map[string]float64, len(ps.Spreads)),
		Labels:             make(map[string]chernoff.Label, len(ps.Labels)),
		CandidatesPerLevel: append([]int(nil), ps.CandidatesPerLevel...),
		AlivePerLevel:      append([]int(nil), ps.AlivePerLevel...),
		Truncated:          ps.Truncated,
	}
	for k, v := range ps.Values {
		p2.Values[k] = v
	}
	for k, v := range ps.Spreads {
		p2.Spreads[k] = v
	}
	for key, l := range ps.Labels {
		if l > uint8(chernoff.Frequent) {
			return nil, fmt.Errorf("core: checkpoint label %d for %q out of range", l, key)
		}
		p, err := pattern.ParseKey(key)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint phase2 key %q: %w", key, err)
		}
		p2.Labels[key] = chernoff.Label(l)
		switch chernoff.Label(l) {
		case chernoff.Frequent:
			p2.Frequent.Add(p)
		case chernoff.Ambiguous:
			p2.Ambiguous.Add(p)
		}
	}
	p2.FQT = pattern.Border(p2.Frequent)
	combined := p2.Frequent.Clone()
	combined.Union(p2.Ambiguous)
	p2.Ceiling = pattern.Border(combined)
	return p2, nil
}

// probeToSnapshot copies the loop state into serializable form. The map is
// copied and the sets rendered as key-sorted slices (pattern.Set.Patterns
// order), so the snapshot stays internally consistent and byte-deterministic
// even if the live state advances before a later flush.
func probeToSnapshot(st *border.State) *checkpoint.ProbeState {
	ps := &checkpoint.ProbeState{
		Scans:    st.Scans,
		Probed:   st.Probed,
		Exact:    make(map[string]float64, len(st.Exact)),
		Frequent: setKeys(st.Frequent),
		Pending:  setKeys(st.Pending),
	}
	for k, v := range st.Exact {
		ps.Exact[k] = v
	}
	return ps
}

func setKeys(s *pattern.Set) []string {
	pats := s.Patterns()
	keys := make([]string, len(pats))
	for i, p := range pats {
		keys[i] = p.Key()
	}
	return keys
}

// stateFromSnapshot rebuilds the probe loop's state; FinalizeState then
// performs exactly the scans the interrupted run had left.
func stateFromSnapshot(ps *checkpoint.ProbeState) (*border.State, error) {
	st := &border.State{
		Frequent: pattern.NewSet(),
		Pending:  pattern.NewSet(),
		Exact:    make(map[string]float64, len(ps.Exact)),
		Scans:    ps.Scans,
		Probed:   ps.Probed,
	}
	for k, v := range ps.Exact {
		st.Exact[k] = v
	}
	for _, key := range ps.Frequent {
		p, err := pattern.ParseKey(key)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint frequent key %q: %w", key, err)
		}
		st.Frequent.Add(p)
	}
	for _, key := range ps.Pending {
		p, err := pattern.ParseKey(key)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint pending key %q: %w", key, err)
		}
		st.Pending.Add(p)
	}
	return st, nil
}

// Resume restarts a checkpointed run from the snapshot at path, skipping
// every full database scan the snapshot records: Phase 1's scan is replaced
// by the stored symbol matches and sample, Phase 2 (if recorded) by the
// stored classification, and Phase 3 continues from the probe loop's last
// completed scan. Because every downstream step is a deterministic function
// of the recorded state, the resumed Result's Frequent set and Border are
// identical to the uninterrupted run's, and Result.Scans reports the same
// logical total (Result.ScansSkipped says how many of them this process
// avoided).
//
// cfg must describe the same mining run: Resume rejects the snapshot with an
// error wrapping ErrIncompatible when the configuration hash, database
// length, or database path disagree. cfg.Rng may be nil — the generator is
// rebuilt from the snapshot's recorded seed and fast-forwarded past the
// draws Phase 1 consumed. The pipeline (Mine vs MineSweep) is recorded in
// the snapshot, so Resume serves both. Checkpointing continues (and the
// snapshot keeps advancing) when cfg.Checkpoint is set, which a resumed run
// normally wants; phase budgets in cfg.PhaseTimeouts apply to the phases
// actually run.
func Resume(ctx context.Context, path string, db seqdb.Scanner, c compat.Source, cfg Config) (*Result, error) {
	snap, err := checkpoint.Load(path)
	if err != nil {
		return nil, err
	}
	var engine string
	switch snap.Engine {
	case engineCandidates, engineSweep, engineGrowth:
		engine = snap.Engine
	default:
		return nil, fmt.Errorf("core: checkpoint engine %q unknown", snap.Engine)
	}
	if cfg.Rng == nil {
		rng := rand.New(rand.NewSource(snap.Seed))
		for i := uint64(0); i < snap.RngDraws; i++ {
			rng.Float64()
		}
		cfg.Rng = rng
	}
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if hash := configHash(&cfg, engine); hash != snap.ConfigHash {
		return nil, fmt.Errorf("%w: config hash %#x, snapshot %#x", ErrIncompatible, hash, snap.ConfigHash)
	}
	if snap.DBLen != db.Len() {
		return nil, fmt.Errorf("%w: database holds %d sequences, snapshot recorded %d", ErrIncompatible, db.Len(), snap.DBLen)
	}
	if p := scannerPath(db); p != "" && snap.DBPath != "" && p != snap.DBPath {
		return nil, fmt.Errorf("%w: database path %q, snapshot recorded %q", ErrIncompatible, p, snap.DBPath)
	}
	return mineContext(ctx, db, c, cfg, engine, snap)
}
