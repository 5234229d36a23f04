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
//   - Phase 2: for every candidate the last mine evaluated, the stream keeps
//     its match in every sample slot, and it records which slots were
//     appended or replaced since. Every Advance that consumes a sequence
//     re-mines the in-memory sample, with no database scan: kept candidates
//     have only those slots rescored, new candidates are scored over the
//     whole sample, and each value is then formed as the Phase 2 kernel
//     forms it (match.ShardMean), so it is bit-identical to a fresh
//     match.Incremental mine of the same sample, and the re-mine costs the
//     members a batch changed, not the whole sample. An Advance that
//     consumes nothing keeps the last mine: the sample and the symbol
//     matches are unchanged, so a re-mine would return it again.
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
// The stream never runs the level-wise projection kernel (match.Incremental),
// so its mines leave the match.kernel_* telemetry at zero; its re-mines
// report stream_rescored_members instead.
//
// Equivalence: with SampleSize >= the window size, a re-mine values the
// sample core.Mine draws over the consumed window, bit for bit as the
// kernel would, so after every Advance, at any window size, Phase 2's
// values, labels and sets are those of core.Mine with the level-wise Phase 2
// engine.
package stream

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/border"
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
	// MaxCandidatesPerLevel caps each re-mine level (0 = unlimited); a
	// truncated mine reports Phase2.Truncated.
	MaxCandidatesPerLevel int
	// MemBudget is the number of pattern counters a probe round may hold.
	// Default 10000.
	MemBudget int
	// Workers splits a re-mine's scoring into contiguous sample-member
	// ranges, one goroutine each (0/1 sequential, negative = GOMAXPROCS).
	// Values do not depend on it.
	Workers int
	// Seed drives the stateless reservoir draws (required for
	// reproducibility; any fixed value works).
	Seed int64
	// Window, when > 0, keeps at most that many live sequences: Advance
	// expires older sequences from the log (requires a writable AppendDB)
	// before consuming the batch. 0 leaves expiry to the caller.
	Window int
	// Metrics, when non-nil, receives streaming telemetry (batches, appended,
	// expired and replaced sequences, re-probes avoided, re-mines and the
	// members they rescored) plus the probe-loop counters. Nil disables
	// collection.
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
// window plus what the incremental machinery did to get there.
type Result struct {
	// Frequent is the exact frequent set over the consumed window and Border
	// its border (FQT).
	Frequent *pattern.Set
	Border   *pattern.Set
	// SymbolMatch holds the maintained exact per-symbol matches.
	SymbolMatch []float64
	// SampleSize is the current reservoir occupancy.
	SampleSize int
	// Phase2 is the last mine: the one this batch ran, or for a batch that
	// consumed nothing the one before. The stream shares it with later
	// Results until the next re-mine, so callers must not modify it. Nil
	// for an empty window.
	Phase2 *miner.Result
	// Phase3 reports the probe loop (nil when nothing was ambiguous).
	Phase3 *border.Result
	// Appended and Expired count the sequences consumed and dropped by this
	// batch; Total is the absolute id past the last consumed sequence.
	Appended, Expired, Total int
	// Replaced counts the reservoir members this batch's appends replaced,
	// which its re-mine rescores with the members appended. A window rebuild
	// redraws the whole reservoir and counts none (Expired shows why it
	// re-mined).
	Replaced int
	// Remined reports that this batch re-mined the sample: every Advance
	// that consumes a sequence does, and so does the first after a window
	// rebuild, a failed re-mine or a Restore without a mine. BorderShifted
	// is always false; no label test decides a re-mine.
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

	// kept holds, per candidate of the last mine that fit the keep budget,
	// its match in every sample slot as that mine saw it. changed lists the
	// slots appended or replaced since, each once; marked[i] flags slot i.
	kept    map[string][]float64
	changed []int
	marked  []bool

	symbolMatch []float64
	lastMine    *miner.Result
	exactSums   map[string]float64 // straight window match sums per probed pattern
	probed      []pattern.Pattern  // exactSums keys as patterns, key-sorted
	probedKeys  []string           // probed's keys
	scratch     []float64          // member-major matches of one score chunk
}

// keepBudget bounds the kept matches in bytes, 8 per candidate per sample
// member. A variable only so that tests can force it low.
var keepBudget = match.DefaultCacheBudget

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
		kept:        make(map[string][]float64),
		exactSums:   make(map[string]float64),
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
	// ExactSums are the window match sums of the probed patterns.
	ExactSums map[string]float64
}

// State captures the stream's current progress. Slices and maps are copies.
func (s *Stream) State() *State {
	st := &State{
		Cursor:      s.cursor,
		WindowStart: s.windowStart,
		Sample:      make([][]pattern.Symbol, len(s.sample)),
		SymbolSums:  s.acc.Sums(),
		ExactSums:   make(map[string]float64, len(s.exactSums)),
	}
	for i, seq := range s.sample {
		st.Sample[i] = append([]pattern.Symbol(nil), seq...)
	}
	for k, v := range s.exactSums {
		st.ExactSums[k] = v
	}
	return st
}

// LastMine exposes the current sample-mining state for checkpointing (nil
// before the first mine, and after an empty window, a window rebuild or a
// failed re-mine until the next mine).
func (s *Stream) LastMine() *miner.Result { return s.lastMine }

// Cursor returns the absolute id of the next unconsumed sequence.
func (s *Stream) Cursor() int { return s.cursor }

// WindowStart returns the absolute id the consumed window starts at.
func (s *Stream) WindowStart() int { return s.windowStart }

// Restore rebuilds a stream from a captured State and the mine that was live
// when it was captured (nil forces a re-mine on the next Advance). The state
// must have been captured under the same Config and log. A first Advance
// that consumes nothing returns mine as it is. A State carries no
// per-member matches, so the restored stream's next re-mine scores every
// member; its values are the uninterrupted stream's all the same.
func Restore(db *seqdb.AppendDB, cfg Config, st *State, mine *miner.Result) (*Stream, error) {
	s, err := New(db, cfg)
	if err != nil {
		return nil, err
	}
	if st.Cursor < st.WindowStart || len(st.SymbolSums) != cfg.C.Size() {
		return nil, fmt.Errorf("stream: inconsistent state (cursor %d, window start %d, %d symbol sums)",
			st.Cursor, st.WindowStart, len(st.SymbolSums))
	}
	if want := min(cfg.SampleSize, st.Cursor-st.WindowStart); len(st.Sample) != want {
		return nil, fmt.Errorf("stream: state carries %d sample sequences, want %d", len(st.Sample), want)
	}
	s.cursor, s.windowStart = st.Cursor, st.WindowStart
	if err := s.acc.SetSums(st.SymbolSums); err != nil {
		return nil, err
	}
	s.sample = make([][]pattern.Symbol, len(st.Sample))
	for i, seq := range st.Sample {
		s.sample[i] = append([]pattern.Symbol(nil), seq...)
		s.mark(i) // no matches are kept: the next re-mine scores every member
	}
	s.symbolMatch = s.acc.Matches(s.cursor - s.windowStart)
	for k, v := range st.ExactSums {
		s.exactSums[k] = v
	}
	if s.probedKeys, s.probed, err = parseSorted(st.ExactSums); err != nil {
		return nil, err
	}
	s.lastMine = mine
	return s, nil
}

// Advance consumes every sequence appended since the last call (applying the
// configured sliding window first), updates the maintained phase state, and
// returns the finalized frequent set over the consumed window. An Advance
// with nothing new costs no window scan at all.
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
		s.forgetMine()
		res.Frequent = pattern.NewSet()
		res.Border = pattern.NewSet()
		s.cfg.Metrics.StreamBatch(res.Appended, res.Expired, res.Replaced, false)
		return res, nil
	}

	// Phase 2: re-mine the in-memory sample if this batch consumed a
	// sequence. One that consumed nothing keeps the last mine: the sample
	// and the symbol matches are unchanged, so a re-mine would return it
	// again, truncation included.
	if s.lastMine == nil || res.Appended > 0 {
		if err := s.remine(ctx); err != nil {
			return nil, err
		}
		res.Remined = true
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
	s.cfg.Metrics.StreamBatch(res.Appended, res.Expired, res.Replaced, res.Remined)
	s.cfg.Metrics.Add(telemetry.StreamReprobesSaved, int64(res.ReprobesAvoided))
	return res, nil
}

// ingest consumes appended sequences — or, when the window start moved,
// rebuilds the whole Phase 1 state from the live window — extending the
// exact sums along the way.
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
		// a log holding only the live window. The window start moves only
		// once the rebuild has read the whole window, so a failed rebuild
		// is redone by the next Advance.
		s.acc = match.NewSymbolAccumulator(s.cfg.C)
		s.sample, s.marked, s.changed = s.sample[:0], s.marked[:0], s.changed[:0]
		s.forgetMine()
		s.exactSums = make(map[string]float64)
		s.probed, s.probedKeys = s.probed[:0], s.probedKeys[:0]
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
		res.Expired = start - s.windowStart
		if cursor := start + delivered; cursor > s.cursor {
			res.Appended = cursor - s.cursor
		}
		s.windowStart, s.cursor = start, start+delivered
		return nil
	}

	var appended [][]pattern.Symbol
	cursor, err := s.db.ScanSince(ctx, s.cursor, func(abs int, seq []pattern.Symbol) error {
		s.acc.Observe(seq)
		kept, replaced := s.offer(abs-s.windowStart, seq)
		if kept == nil {
			kept = append([]pattern.Symbol(nil), seq...)
		}
		if replaced {
			res.Replaced++
		}
		appended = append(appended, kept)
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
		set, err := match.CompileSoA(s.cfg.C, s.probed)
		if err != nil {
			return err
		}
		accumulate(s.exactSums, set, s.probedKeys, appended)
	}
	return nil
}

// offer presents the sequence with window-relative index rel to the
// reservoir (Algorithm R with stateless per-index draws) and marks the slot
// it fills as changed. It returns the copy the reservoir keeps, nil when the
// draw passes the sequence over, and whether the copy replaced a member.
// Members are read-only, so the caller may share the copy.
func (s *Stream) offer(rel int, seq []pattern.Symbol) (kept []pattern.Symbol, replaced bool) {
	if rel < s.cfg.SampleSize {
		kept = append([]pattern.Symbol(nil), seq...)
		s.mark(len(s.sample))
		s.sample = append(s.sample, kept)
		return kept, false
	}
	j := drawIndex(s.cfg.Seed, rel)
	if j >= s.cfg.SampleSize {
		return nil, false
	}
	kept = append([]pattern.Symbol(nil), seq...)
	s.mark(j)
	s.sample[j] = kept
	return kept, true
}

// mark records that sample slot i, at most len(s.sample), was appended or
// replaced since the last mine.
func (s *Stream) mark(i int) {
	if i == len(s.marked) {
		s.marked = append(s.marked, false)
	}
	if !s.marked[i] {
		s.marked[i] = true
		s.changed = append(s.changed, i)
	}
}

// forgetMine drops the last mine and everything derived from it, the kept
// matches included, so the next Advance re-mines every member.
func (s *Stream) forgetMine() {
	s.lastMine = nil
	clear(s.kept)
	for i := range s.sample {
		s.mark(i)
	}
}

// accumulate extends each pattern's running sum by its matches in seqs, with
// set the compiled patterns and keys their keys. The running totals are
// loaded first and each sequence's match is added in arrival order,
// continuing the exact left-to-right addition a from-scratch in-order scan
// performs (adding a separately-summed chunk would reassociate the floats and
// drift from the batch pipeline by ulps).
func accumulate(sums map[string]float64, set *match.SoASet, keys []string, seqs [][]pattern.Symbol) {
	buf := make([]float64, len(keys))
	for i, key := range keys {
		buf[i] = sums[key]
	}
	set.Accumulate(buf, seqs)
	for i, key := range keys {
		sums[key] = buf[i]
	}
}

// remine reruns the sample classification (Phase 2) over the maintained
// sample, valuing candidates from the kept matches (keptValuer). A failed or
// cancelled re-mine forgets the last mine, since the kept matches it was
// updating in place are no longer any mine's.
func (s *Stream) remine(ctx context.Context) error {
	opts := miner.Options{
		MaxLen:                s.cfg.MaxLen,
		MaxGap:                s.cfg.MaxGap,
		MaxCandidatesPerLevel: s.cfg.MaxCandidatesPerLevel,
		Metrics:               s.cfg.Metrics,
	}
	rescored := len(s.changed)
	v := &keptValuer{s: s, rows: int(keepBudget / int64(8*len(s.sample)))}
	for key := range s.kept { // the sample grew past what the budget holds
		if len(s.kept) <= v.rows {
			break
		}
		delete(s.kept, key)
	}
	r, err := miner.SampleChernoffContext(ctx, s.cfg.C.Size(), v.value,
		s.symbolMatch, s.cfg.MinMatch, s.cfg.Delta, len(s.sample), opts)
	if err != nil {
		s.forgetMine()
		return err
	}
	s.adopt(r)
	s.cfg.Metrics.Add(telemetry.StreamRescored, int64(rescored))
	return nil
}

// adopt makes r the last mine: the kept matches of candidates r did not
// evaluate are dropped and the changed slots cleared.
func (s *Stream) adopt(r *miner.Result) {
	for key := range s.kept {
		if _, ok := r.Values[key]; !ok {
			delete(s.kept, key)
		}
	}
	clear(s.marked)
	s.changed = s.changed[:0]
	s.lastMine = r
}

// keptValuer is one re-mine's Phase 2 valuer. A candidate of the last mine
// has its changed slots rescored; a new one is scored over every member and
// kept while the budget holds rows more. Each value is match.ShardMean of
// the candidate's per-member matches: the Phase 2 kernel's float.
type keptValuer struct {
	s    *Stream
	rows int       // candidates the keep budget holds at this sample size
	row  []float64 // an unkept candidate's matches
}

func (v *keptValuer) value(ps []pattern.Pattern) ([]float64, error) {
	s := v.s
	n := len(s.sample)
	keys := make([]string, len(ps))
	var old, fresh []pattern.Pattern
	var oldKeys []string
	var freshIdx []int
	for i, p := range ps {
		keys[i] = p.Key()
		if _, ok := s.kept[keys[i]]; ok {
			old, oldKeys = append(old, p), append(oldKeys, keys[i])
		} else {
			fresh, freshIdx = append(fresh, p), append(freshIdx, i)
		}
	}
	out := make([]float64, len(ps))
	if len(old) > 0 && len(s.changed) > 0 {
		members := make([][]pattern.Symbol, len(s.changed))
		for j, slot := range s.changed {
			members[j] = s.sample[slot]
		}
		err := s.score(old, members, func(lo int, m [][]float64) {
			for k, key := range oldKeys[lo : lo+len(m[0])] {
				row := s.kept[key]
				if len(row) < n { // appended slots are among the changed
					row = append(row, make([]float64, n-len(row))...)
					s.kept[key] = row
				}
				for j, slot := range s.changed {
					row[slot] = m[j][k]
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if len(fresh) > 0 {
		err := s.score(fresh, s.sample, func(lo int, m [][]float64) {
			for k, i := range freshIdx[lo : lo+len(m[0])] {
				row, keep := v.row, len(s.kept) < v.rows
				if keep {
					row = make([]float64, n)
					s.kept[keys[i]] = row
				} else if row == nil {
					row = make([]float64, n)
					v.row = row
				}
				for j := range row {
					row[j] = m[j][k]
				}
				if !keep {
					out[i] = match.ShardMean(row)
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	for i, key := range keys {
		if row, ok := s.kept[key]; ok {
			out[i] = match.ShardMean(row)
		}
	}
	return out, nil
}

// scoreBytes bounds the member-major matches one score chunk holds. A
// variable only so that tests can force it low.
var scoreBytes = 4 << 20

// score scores ps over members, compiled in chunks whose member-major
// matches fit scoreBytes, and calls put(lo, m) per chunk: m[j][k] is
// members[j]'s match of ps[lo+k], valid until put returns. Contiguous member
// ranges are scored on up to Workers goroutines; every match is the
// kernel's, whatever the split.
func (s *Stream) score(ps []pattern.Pattern, members [][]pattern.Symbol, put func(lo int, m [][]float64)) error {
	workers := s.cfg.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(max(workers, 1), len(members))
	step := max(1, scoreBytes/(8*len(members)))
	m := make([][]float64, len(members))
	for lo := 0; lo < len(ps); lo += step {
		chunk := ps[lo:min(lo+step, len(ps))]
		set, err := match.CompileSoA(s.cfg.C, chunk)
		if err != nil {
			return err
		}
		w := len(chunk)
		if need := len(members) * w; cap(s.scratch) < need {
			s.scratch = make([]float64, need)
		} else {
			s.scratch = s.scratch[:need]
			clear(s.scratch)
		}
		for j := range m {
			m[j] = s.scratch[j*w : (j+1)*w : (j+1)*w]
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			a, b := g*len(members)/workers, (g+1)*len(members)/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				set.AccumulateEach(m[a:b], members[a:b])
			}()
		}
		wg.Wait()
		put(lo, m)
	}
	return nil
}

// hybridProbe is the Phase 3 valuer: patterns with cached exact sums are
// resolved without touching the database; the rest are counted in one pass
// over the consumed window and their sums cached for every later batch.
func (s *Stream) hybridProbe(ctx context.Context, res *Result, scans *int) miner.Valuer {
	return func(ps []pattern.Pattern) ([]float64, error) {
		n := float64(s.cursor - s.windowStart)
		out := make([]float64, len(ps))
		var miss []pattern.Pattern
		var missKeys []string
		var missIdx []int
		for i, p := range ps {
			key := p.Key()
			if sum, ok := s.exactSums[key]; ok {
				out[i] = sum / n
				res.ReprobesAvoided++
				continue
			}
			miss = append(miss, p)
			missKeys = append(missKeys, key)
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
			s.exactSums[missKeys[j]] = sums[j]
			out[i] = sums[j] / n
		}
		s.probed = append(s.probed, miss...)
		s.probedKeys = append(s.probedKeys, missKeys...)
		sort.Sort(byKey{s.probedKeys, s.probed})
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

// parseSorted returns the keys of m, restored exact sums, in ascending order
// and the patterns they parse to.
func parseSorted(m map[string]float64) ([]string, []pattern.Pattern, error) {
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	ps := make([]pattern.Pattern, len(keys))
	for i, key := range keys {
		p, err := pattern.ParseKey(key)
		if err != nil {
			return nil, nil, fmt.Errorf("stream: exact-sum key %q: %w", key, err)
		}
		ps[i] = p
	}
	return keys, ps, nil
}

// byKey sorts patterns by their keys, each computed once: keys[i] is
// ps[i].Key().
type byKey struct {
	keys []string
	ps   []pattern.Pattern
}

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.ps[i], b.ps[j] = b.ps[j], b.ps[i]
}
