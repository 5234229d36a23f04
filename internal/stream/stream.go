// Package stream maintains the three-phase mining pipeline's state across
// batches of an append-only sequence log (seqdb.AppendDB), so a growing
// database is re-mined incrementally instead of from scratch.
//
// What is maintained between batches mirrors the pipeline's phases:
//
//   - Phase 1: a long-lived match.SymbolAccumulator extends the per-symbol
//     match sums with each appended sequence, and a reservoir sample of
//     SampleSize sequences is kept over the live window. Reservoir draws are
//     stateless — each offer's draw is derived from (Seed, window-relative
//     index) alone — so a restored or rebuilt stream reproduces the exact
//     sample the uninterrupted stream holds, with no RNG replay.
//   - Phase 2: per-pattern sample match sums for every candidate the last
//     mine evaluated are extended sequence by sequence, in sample order, so
//     they stay bit-identical to a fresh in-order scan of the sample. On each
//     batch the unclamped Chernoff labels are recomputed from the maintained
//     sums; only when some label changes (a border shift), the sample was
//     perturbed by a reservoir replacement, or the candidate space was
//     truncated does the stream fall back to a scoped re-mine of the
//     in-memory sample — no database scan either way. The sums and the
//     mine's raw-label baseline are built on first read, from the sample
//     members and symbol matches the mine saw, so a sample the next batch
//     perturbs is never re-scored.
//   - Phase 3: exact database match sums of previously probed patterns are
//     extended with each appended sequence, so a pattern probed in an earlier
//     batch is re-probed for free — its Chernoff interval is resolved from
//     the cached sum without a scan. Only never-probed patterns cost a pass
//     over the live window. Probe order never changes the final frequent set
//     (exact values plus anti-monotone Apriori propagation), so serving
//     cached probes first is purely an execution layout.
//
// Sliding-window expiry (Config.Window, or an external ExpireBefore on the
// log) moves the window start; the stream detects the shift and rebuilds its
// Phase 1 state from the live window. Because reservoir draws are keyed by
// window-relative index, the rebuilt state is identical to a fresh stream
// over a database holding only the live window.
//
// Equivalence: with SampleSize >= the window size, a re-mine values the
// sample core.Mine draws over the consumed window with the same Phase 2
// kernel, so its values are core.Mine's bit for bit. Values refreshed from
// the maintained sums are straight in-order sums: bit-identical to the
// kernel's shard-merged sums while the sample fits in one 32-sequence shard
// (every Advance then yields results bit-identical to core.Mine), and within
// float64 sum reassociation beyond that, where labels agree away from exact
// Chernoff boundaries.
package stream

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/border"
	"repro/internal/chernoff"
	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// Config parameterizes a stream. The mining parameters carry the same
// semantics as core.Config's.
type Config struct {
	// C is the compatibility source (required).
	C compat.Source
	// MinMatch is the significance threshold (required, in (0,1]).
	MinMatch float64
	// Delta is the Chernoff failure probability. Default 1e-4.
	Delta float64
	// SampleSize is the reservoir capacity (required, >= 1). With
	// SampleSize >= the live window the sample is the whole window in append
	// order — exactly the sample a batch run with the same cap draws.
	SampleSize int
	// MaxLen bounds total pattern length (required, >= 1).
	MaxLen int
	// MaxGap bounds runs of eternal symbols inside a pattern.
	MaxGap int
	// MaxCandidatesPerLevel caps each re-mine level (0 = unlimited). A
	// truncated mine disables the incremental skip (truncation depends on
	// value ordering, not just labels), forcing a re-mine every batch.
	MaxCandidatesPerLevel int
	// MemBudget is the number of pattern counters a probe round may hold.
	// Default 10000.
	MemBudget int
	// Workers parallelizes the re-mine's projection kernel (0/1 sequential,
	// negative = GOMAXPROCS).
	Workers int
	// Seed drives the stateless reservoir draws (required for
	// reproducibility; any fixed value works).
	Seed int64
	// Window, when > 0, keeps at most that many live sequences: Advance
	// expires older sequences from the log (requires a writable AppendDB)
	// before consuming the batch. 0 leaves expiry to the caller.
	Window int
	// Metrics, when non-nil, receives streaming telemetry (batches, appended
	// and expired sequences, re-probes avoided, border shifts, re-mines) plus
	// the probe-loop counters. Nil disables collection.
	Metrics *telemetry.Metrics
}

func (c *Config) setDefaults() {
	if c.Delta == 0 {
		c.Delta = 1e-4
	}
	if c.MemBudget == 0 {
		c.MemBudget = 10000
	}
}

func (c *Config) validate() error {
	if c.C == nil {
		return fmt.Errorf("stream: compatibility source is required")
	}
	if c.MinMatch <= 0 || c.MinMatch > 1 {
		return fmt.Errorf("stream: MinMatch %v outside (0,1]", c.MinMatch)
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		return fmt.Errorf("stream: Delta %v outside (0,1)", c.Delta)
	}
	if c.SampleSize < 1 {
		return fmt.Errorf("stream: SampleSize %d < 1", c.SampleSize)
	}
	if c.MaxLen < 1 {
		return fmt.Errorf("stream: MaxLen %d < 1", c.MaxLen)
	}
	if c.MaxGap < 0 || c.MaxCandidatesPerLevel < 0 || c.Window < 0 {
		return fmt.Errorf("stream: negative bound")
	}
	if c.MemBudget < 1 {
		return fmt.Errorf("stream: MemBudget %d < 1", c.MemBudget)
	}
	return nil
}

// Result reports one Advance: the finalized frequent set over the consumed
// window plus what the incremental machinery did to get there. Phase2 is the
// stream's live mining state — it is updated in place by later Advances, so
// callers retaining it across batches must copy what they need.
type Result struct {
	// Frequent is the exact frequent set over the consumed window and Border
	// its border (FQT).
	Frequent *pattern.Set
	Border   *pattern.Set
	// SymbolMatch holds the maintained exact per-symbol matches.
	SymbolMatch []float64
	// SampleSize is the current reservoir occupancy.
	SampleSize int
	// Phase2 is the current sample-mining state (values and spreads are
	// refreshed in place on skipped batches). Nil for an empty window.
	Phase2 *miner.Result
	// Phase3 reports the probe loop (nil when nothing was ambiguous).
	Phase3 *border.Result
	// Appended and Expired count the sequences consumed and dropped by this
	// batch; Total is the absolute id past the last consumed sequence.
	Appended, Expired, Total int
	// Remined reports that this batch fell back to a scoped re-mine of the
	// sample; BorderShifted that a maintained label change forced it.
	Remined       bool
	BorderShifted bool
	// ReprobesAvoided counts ambiguous patterns resolved from cached exact
	// sums without a scan; Scans counts the window passes probing cost.
	ReprobesAvoided int
	Scans           int
}

// Stream is the incremental mining state over one append log. Not safe for
// concurrent use; one Advance at a time.
type Stream struct {
	db  *seqdb.AppendDB
	cfg Config

	cursor      int // absolute id of the next unconsumed sequence
	windowStart int // absolute id of the window the state was built over

	acc    *match.SymbolAccumulator
	sample [][]pattern.Symbol

	symbolMatch []float64
	lastMine    *miner.Result
	evaluated   []pattern.Pattern  // last mine's candidates, key-sorted
	evalSet     *match.SoASet      // evaluated, compiled
	mined       *mineView          // what the last mine saw, until the sums are built
	sampleSums  map[string]float64 // straight sample match sums per candidate
	summed      int                // sampleSums cover sample[:summed]
	prevRaw     map[string]chernoff.Label
	exactSums   map[string]float64 // straight window match sums per probed pattern
	probed      []pattern.Pattern  // exactSums keys as patterns, key-sorted
	dirty       bool               // sample perturbed: maintained sums invalid
}

// mineView is what the last mine saw: the sample members (their headers
// copied, so a later replacement does not reach them), the symbol matches
// and a classifier for that sample size. The maintained sample sums and the
// raw-label baseline are built from it when first read.
type mineView struct {
	sample      [][]pattern.Symbol
	symbolMatch []float64
	cls         *chernoff.Classifier
}

// New builds a stream over db. No data is consumed until Advance.
func New(db *seqdb.AppendDB, cfg Config) (*Stream, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Stream{
		db:          db,
		cfg:         cfg,
		cursor:      db.Start(),
		windowStart: db.Start(),
		acc:         match.NewSymbolAccumulator(cfg.C),
		exactSums:   make(map[string]float64),
		dirty:       true,
	}
	return s, nil
}

// State is the stream's serializable progress — everything beyond the config
// and the log itself needed to continue bit-identically after a restart. The
// sample-mining result travels separately (checkpoint's Phase2State already
// serializes a miner.Result).
type State struct {
	// Cursor and WindowStart delimit the consumed window [WindowStart, Cursor).
	Cursor, WindowStart int
	// Sample is the reservoir contents in maintained order.
	Sample [][]pattern.Symbol
	// SymbolSums are the accumulator's raw per-symbol sums.
	SymbolSums []float64
	// SampleSums and ExactSums are the maintained per-pattern sums.
	SampleSums map[string]float64
	ExactSums  map[string]float64
}

// State captures the stream's current progress. Slices and maps are copies.
// It builds the sample sums first if no Advance has read them since the
// last mine.
func (s *Stream) State() *State {
	s.sums()
	st := &State{
		Cursor:      s.cursor,
		WindowStart: s.windowStart,
		Sample:      make([][]pattern.Symbol, len(s.sample)),
		SymbolSums:  s.acc.Sums(),
		SampleSums:  make(map[string]float64, len(s.sampleSums)),
		ExactSums:   make(map[string]float64, len(s.exactSums)),
	}
	for i, seq := range s.sample {
		st.Sample[i] = append([]pattern.Symbol(nil), seq...)
	}
	for k, v := range s.sampleSums {
		st.SampleSums[k] = v
	}
	for k, v := range s.exactSums {
		st.ExactSums[k] = v
	}
	return st
}

// LastMine exposes the current sample-mining state for checkpointing (nil
// before the first mine).
func (s *Stream) LastMine() *miner.Result { return s.lastMine }

// Cursor returns the absolute id of the next unconsumed sequence.
func (s *Stream) Cursor() int { return s.cursor }

// WindowStart returns the absolute id the consumed window starts at.
func (s *Stream) WindowStart() int { return s.windowStart }

// Restore rebuilds a stream from a captured State and the mine that was live
// when it was captured (nil forces a re-mine on the next Advance). The state
// must have been captured under the same Config and log.
func Restore(db *seqdb.AppendDB, cfg Config, st *State, mine *miner.Result) (*Stream, error) {
	s, err := New(db, cfg)
	if err != nil {
		return nil, err
	}
	if st.Cursor < st.WindowStart || len(st.SymbolSums) != cfg.C.Size() {
		return nil, fmt.Errorf("stream: inconsistent state (cursor %d, window start %d, %d symbol sums)",
			st.Cursor, st.WindowStart, len(st.SymbolSums))
	}
	if want := minInt(cfg.SampleSize, st.Cursor-st.WindowStart); len(st.Sample) != want {
		return nil, fmt.Errorf("stream: state carries %d sample sequences, want %d", len(st.Sample), want)
	}
	s.cursor, s.windowStart = st.Cursor, st.WindowStart
	if err := s.acc.SetSums(st.SymbolSums); err != nil {
		return nil, err
	}
	s.sample = make([][]pattern.Symbol, len(st.Sample))
	for i, seq := range st.Sample {
		s.sample[i] = append([]pattern.Symbol(nil), seq...)
	}
	s.symbolMatch = s.acc.Matches(s.cursor - s.windowStart)
	for k, v := range st.ExactSums {
		s.exactSums[k] = v
		p, err := pattern.ParseKey(k)
		if err != nil {
			return nil, fmt.Errorf("stream: exact-sum key %q: %w", k, err)
		}
		s.probed = append(s.probed, p)
	}
	sortPatterns(s.probed)
	if mine != nil {
		s.lastMine = mine
		if err := s.adoptSums(st.SampleSums); err != nil {
			return nil, err
		}
		s.dirty = false
	}
	return s, nil
}

// adoptSums installs restored sample sums for the restored mine's candidates
// and recomputes the raw-label baseline from them.
func (s *Stream) adoptSums(sums map[string]float64) error {
	if err := s.adoptCandidates(); err != nil {
		return err
	}
	s.sampleSums = make(map[string]float64, len(s.evaluated))
	for _, p := range s.evaluated {
		v, ok := sums[p.Key()]
		if !ok {
			return fmt.Errorf("stream: restored state misses sample sum for %q", p.Key())
		}
		s.sampleSums[p.Key()] = v
	}
	s.summed = len(s.sample)
	cls, err := s.classifier()
	if err != nil {
		return err
	}
	s.prevRaw = s.rawLabels(cls, s.symbolMatch)
	return nil
}

// adoptCandidates makes the last mine's candidates the maintained ones:
// parsed, key-sorted and compiled.
func (s *Stream) adoptCandidates() error {
	s.evaluated = s.evaluated[:0]
	for key := range s.lastMine.Values {
		p, err := pattern.ParseKey(key)
		if err != nil {
			return fmt.Errorf("stream: candidate key %q: %w", key, err)
		}
		s.evaluated = append(s.evaluated, p)
	}
	sortPatterns(s.evaluated)
	set, err := match.CompileSoA(s.cfg.C, s.evaluated)
	if err != nil {
		return err
	}
	s.evalSet = set
	return nil
}

// Advance consumes every sequence appended since the last call (applying the
// configured sliding window first), updates the maintained phase state, and
// returns the finalized frequent set over the consumed window. An Advance
// with nothing new and no border shift costs no window scan at all.
func (s *Stream) Advance(ctx context.Context) (*Result, error) {
	res := &Result{}
	if s.cfg.Window > 0 {
		if total := s.db.Total(); total-s.db.Start() > s.cfg.Window {
			if err := s.db.ExpireBefore(total - s.cfg.Window); err != nil {
				return nil, err
			}
		}
	}
	if err := s.ingest(ctx, res); err != nil {
		return nil, err
	}
	n := s.cursor - s.windowStart
	res.Total = s.cursor
	s.symbolMatch = s.acc.Matches(n)
	res.SymbolMatch = s.symbolMatch
	res.SampleSize = len(s.sample)
	if n == 0 {
		// An empty window mines nothing; the frequent set is trivially empty.
		s.lastMine, s.evaluated, s.evalSet, s.mined = nil, nil, nil, nil
		s.sampleSums, s.prevRaw = nil, nil
		s.dirty = true
		res.Frequent = pattern.NewSet()
		res.Border = pattern.NewSet()
		s.cfg.Metrics.StreamBatch(res.Appended, res.Expired, false, false)
		return res, nil
	}

	// Phase 2: skip the re-mine when the maintained labels prove the border
	// did not move; otherwise re-mine the in-memory sample.
	need := s.dirty || s.lastMine == nil || s.lastMine.Truncated
	if !need {
		s.sums()
		cls, err := s.classifier()
		if err != nil {
			return nil, err
		}
		if !sameLabels(s.rawLabels(cls, s.symbolMatch), s.prevRaw) {
			res.BorderShifted = true
			need = true
		}
	}
	if need {
		if err := s.remine(ctx); err != nil {
			return nil, err
		}
		res.Remined = true
	} else {
		s.refreshMine()
	}
	res.Phase2 = s.lastMine

	// Phase 3: finalize the border, serving cached exact sums first.
	if s.lastMine.Ambiguous.Len() == 0 {
		res.Frequent = s.lastMine.Frequent.Clone()
		res.Border = pattern.Border(res.Frequent)
	} else {
		scans0 := 0
		probeCfg := border.Config{
			MinMatch:  s.cfg.MinMatch,
			MemBudget: s.cfg.MemBudget,
			Probe:     s.hybridProbe(ctx, res, &scans0),
			Ctx:       ctx,
			Metrics:   s.cfg.Metrics,
		}
		p3, err := border.FinalizeState(probeCfg, border.NewState(s.lastMine.Frequent, s.lastMine.Ambiguous), s.pickCachedFirst)
		if err != nil {
			return nil, err
		}
		res.Phase3 = p3
		res.Frequent = p3.Frequent
		res.Border = p3.Border
		res.Scans = scans0
	}
	s.cfg.Metrics.StreamBatch(res.Appended, res.Expired, res.BorderShifted, res.Remined)
	s.cfg.Metrics.Add(telemetry.StreamReprobesSaved, int64(res.ReprobesAvoided))
	return res, nil
}

// ingest consumes appended sequences — or, when the window start moved,
// rebuilds the whole Phase 1 state from the live window — extending the
// exact sums along the way. Sample members it appends are added to the
// sample sums when those are next read.
func (s *Stream) ingest(ctx context.Context, res *Result) error {
	// A read-only handle caches the window start: re-read the log's head and
	// sidecar first, so an expiry by the writer is seen before anything is
	// consumed (a no-op on the writer's own handle).
	if err := s.db.Refresh(); err != nil {
		return err
	}
	if start := s.db.Start(); start != s.windowStart {
		// The window moved (sliding-window expiry, here or externally):
		// rebuild from the live window. Stateless draws keyed by the new
		// window-relative indices make this identical to a fresh stream over
		// a log holding only the live window.
		res.Expired = start - s.windowStart
		oldCursor := s.cursor
		s.windowStart = start
		s.acc = match.NewSymbolAccumulator(s.cfg.C)
		s.sample = s.sample[:0]
		s.exactSums = make(map[string]float64)
		s.probed = s.probed[:0]
		s.dirty = true
		delivered := 0
		err := s.db.ScanContext(ctx, func(id int, seq []pattern.Symbol) error {
			s.acc.Observe(seq)
			s.offer(id, seq)
			delivered++
			return nil
		})
		if err != nil {
			return err
		}
		s.cursor = s.windowStart + delivered
		if s.cursor > oldCursor {
			res.Appended = s.cursor - oldCursor
		}
		return nil
	}

	var appended [][]pattern.Symbol
	cursor, err := s.db.ScanSince(ctx, s.cursor, func(abs int, seq []pattern.Symbol) error {
		s.acc.Observe(seq)
		s.offer(abs-s.windowStart, seq)
		appended = append(appended, append([]pattern.Symbol(nil), seq...))
		return nil
	})
	if err != nil {
		return err
	}
	s.cursor = cursor
	res.Appended = len(appended)
	if len(appended) == 0 {
		return nil
	}

	// Extend the exact sums, in arrival order, so they stay bit-identical
	// to a from-scratch in-order scan.
	if len(s.probed) > 0 {
		if err := s.extendSums(s.exactSums, s.probed, appended); err != nil {
			return err
		}
	}
	return nil
}

// offer presents the sequence with window-relative index rel to the
// reservoir (Algorithm R with stateless per-index draws).
func (s *Stream) offer(rel int, seq []pattern.Symbol) {
	if rel < s.cfg.SampleSize {
		s.sample = append(s.sample, append([]pattern.Symbol(nil), seq...))
		return
	}
	if j := drawIndex(s.cfg.Seed, rel); j < s.cfg.SampleSize {
		s.sample[j] = append([]pattern.Symbol(nil), seq...)
		s.dirty = true // a member was replaced: maintained sample sums are stale
	}
}

// drawIndex is the stateless Algorithm R draw for the rel-th window sequence:
// uniform on [0, rel], a pure function of (seed, rel), so any replay of the
// window reproduces the same reservoir.
func drawIndex(seed int64, rel int) int {
	rng := rand.New(rand.NewSource(seed ^ int64(uint64(rel+1)*0x9E3779B97F4A7C15)))
	return rng.Intn(rel + 1)
}

// extendSums scores seqs against ps (key-sorted) and extends each pattern's
// running sum in sums.
func (s *Stream) extendSums(sums map[string]float64, ps []pattern.Pattern, seqs [][]pattern.Symbol) error {
	set, err := match.CompileSoA(s.cfg.C, ps)
	if err != nil {
		return err
	}
	accumulate(sums, set, ps, seqs)
	return nil
}

// accumulate extends each pattern's running sum by its matches in seqs, with
// set the compiled ps. The running totals are loaded first and each
// sequence's match is added in arrival order, continuing the exact
// left-to-right addition a from-scratch in-order scan performs (adding a
// separately-summed chunk would reassociate the floats and drift from the
// batch pipeline by ulps).
func accumulate(sums map[string]float64, set *match.SoASet, ps []pattern.Pattern, seqs [][]pattern.Symbol) {
	buf := make([]float64, len(ps))
	for i, p := range ps {
		buf[i] = sums[p.Key()]
	}
	set.Accumulate(buf, seqs)
	for i, p := range ps {
		sums[p.Key()] = buf[i]
	}
}

// sums brings the maintained sample sums up to the current sample. On the
// first read after a mine it builds them, and the raw-label baseline, from
// the members and symbol matches the mine saw; it then adds the members
// appended since, unless a replacement has made the sums stale (the next
// Advance re-mines). It cannot fail: the candidates were compiled and the
// classifier built when the mine ran.
func (s *Stream) sums() {
	if v := s.mined; v != nil {
		s.mined = nil
		s.sampleSums = make(map[string]float64, len(s.evaluated))
		accumulate(s.sampleSums, s.evalSet, s.evaluated, v.sample)
		s.summed = len(v.sample)
		s.prevRaw = s.rawLabels(v.cls, v.symbolMatch)
	}
	if s.lastMine != nil && !s.dirty && s.summed < len(s.sample) {
		accumulate(s.sampleSums, s.evalSet, s.evaluated, s.sample[s.summed:])
		s.summed = len(s.sample)
	}
}

// classifier is the Chernoff classifier for the current sample size.
func (s *Stream) classifier() (*chernoff.Classifier, error) {
	return chernoff.NewClassifier(s.cfg.MinMatch, s.cfg.Delta, len(s.sample))
}

// rawLabels computes the unclamped classification of every maintained
// candidate from the sample sums, under cls (whose N is the sample size the
// sums cover) and the given symbol matches: exact for 1-patterns (Phase 1's
// symbol matches carry no sampling uncertainty), Chernoff with the
// restricted spread otherwise. If none of these change, a fresh mine would
// regenerate the same candidate space with the same labels, so the re-mine
// is skipped.
func (s *Stream) rawLabels(cls *chernoff.Classifier, symbolMatch []float64) map[string]chernoff.Label {
	n := float64(cls.N)
	out := make(map[string]chernoff.Label, len(s.evaluated))
	for _, p := range s.evaluated {
		key := p.Key()
		if p.K() == 1 {
			if symbolMatch[p[0]] >= s.cfg.MinMatch {
				out[key] = chernoff.Frequent
			} else {
				out[key] = chernoff.Infrequent
			}
			continue
		}
		out[key] = cls.Classify(s.sampleSums[key]/n, chernoff.RestrictedSpread(p, symbolMatch))
	}
	return out
}

func sameLabels(a, b map[string]chernoff.Label) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// remine reruns the sample classification (Phase 2) over the maintained
// sample — the scoped fallback when the incremental path cannot prove the
// border stayed put. It records what the mine saw; the maintained sums and
// the raw-label baseline over the fresh candidate space are built from that
// record when first read, so a sample the next batch perturbs is never
// re-scored.
func (s *Stream) remine(ctx context.Context) error {
	opts := miner.Options{
		MaxLen:                s.cfg.MaxLen,
		MaxGap:                s.cfg.MaxGap,
		MaxCandidatesPerLevel: s.cfg.MaxCandidatesPerLevel,
		Metrics:               s.cfg.Metrics,
	}
	valuer, inc := miner.IncrementalSampleValuer(s.cfg.C, s.sample, miner.IncrementalConfig{
		Workers: s.cfg.Workers,
		Metrics: s.cfg.Metrics,
	})
	defer inc.Release()
	r, err := miner.SampleChernoffContext(ctx, s.cfg.C.Size(), valuer,
		s.symbolMatch, s.cfg.MinMatch, s.cfg.Delta, len(s.sample), opts)
	if err != nil {
		return err
	}
	s.lastMine = r
	if err := s.adoptCandidates(); err != nil {
		return err
	}
	cls, err := s.classifier()
	if err != nil {
		return err
	}
	// The sample sums are rebuilt with one straight in-order pass over these
	// members, so they (and every label derived from them later) do not
	// depend on how the re-mine summed them.
	s.mined = &mineView{
		sample:      append([][]pattern.Symbol(nil), s.sample...),
		symbolMatch: append([]float64(nil), s.symbolMatch...),
		cls:         cls,
	}
	s.sampleSums, s.prevRaw = nil, nil
	s.dirty = false
	return nil
}

// refreshMine updates the skipped batch's values and spreads in place from
// the maintained sums — the labels, sets and borders are unchanged by
// construction (that is what the skip condition proved).
func (s *Stream) refreshMine() {
	n := float64(len(s.sample))
	for _, p := range s.evaluated {
		key := p.Key()
		s.lastMine.Values[key] = s.sampleSums[key] / n
		s.lastMine.Spreads[key] = chernoff.RestrictedSpread(p, s.symbolMatch)
	}
}

// hybridProbe is the Phase 3 valuer: patterns with cached exact sums are
// resolved without touching the database; the rest are counted in one pass
// over the consumed window and their sums cached for every later batch.
func (s *Stream) hybridProbe(ctx context.Context, res *Result, scans *int) miner.Valuer {
	return func(ps []pattern.Pattern) ([]float64, error) {
		n := float64(s.cursor - s.windowStart)
		out := make([]float64, len(ps))
		var miss []pattern.Pattern
		var missIdx []int
		for i, p := range ps {
			if sum, ok := s.exactSums[p.Key()]; ok {
				out[i] = sum / n
				res.ReprobesAvoided++
				continue
			}
			miss = append(miss, p)
			missIdx = append(missIdx, i)
		}
		if len(miss) == 0 {
			return out, nil
		}
		set, err := match.CompileSoA(s.cfg.C, miss)
		if err != nil {
			return nil, err
		}
		// Scan exactly the consumed prefix [windowStart, cursor): sequences
		// appended after ingest belong to the next batch. The sums run in
		// sequence order, as one probe block, so later batches extend them
		// exactly.
		window := s.cursor - s.windowStart
		acc := set.NewBlocks(max(window, 1), 0)
		err = s.db.ScanRangeContext(ctx, 0, window, func(id int, seq []pattern.Symbol) error {
			acc.Observe(seq)
			return nil
		})
		if err != nil {
			return nil, err
		}
		sums := make([]float64, len(miss))
		if parts := acc.Partials(); len(parts) > 0 {
			sums = parts[0].Sums
		}
		*scans++
		for j, i := range missIdx {
			key := miss[j].Key()
			s.exactSums[key] = sums[j]
			s.probed = append(s.probed, miss[j])
			out[i] = sums[j] / n
		}
		sortPatterns(s.probed)
		return out, nil
	}
}

// pickCachedFirst drains pending patterns whose exact sums are cached before
// falling back to the halfway-layer schedule. Probe order never changes the
// final frequent set (probes are exact and propagation is anti-monotone), so
// this is purely a scan-avoidance layout.
func (s *Stream) pickCachedFirst(pending *pattern.Set, budget int) []pattern.Pattern {
	var cached []pattern.Pattern
	for _, p := range pending.Patterns() {
		if _, ok := s.exactSums[p.Key()]; ok {
			cached = append(cached, p)
			if len(cached) >= budget {
				break
			}
		}
	}
	if len(cached) > 0 {
		return cached
	}
	return border.PickHalfway(pending, budget)
}

func sortPatterns(ps []pattern.Pattern) {
	sort.Slice(ps, func(a, b int) bool { return ps[a].Key() < ps[b].Key() })
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
