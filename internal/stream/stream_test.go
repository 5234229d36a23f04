package stream_test

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chernoff"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/stream"
)

// testCase is a miniature mining instance for replay-vs-batch comparison,
// generated like the oracle's differential cases but local to this package
// (the oracle imports stream, so stream's tests cannot import the oracle).
type testCase struct {
	c        *compat.Matrix
	db       [][]pattern.Symbol
	minMatch float64
	delta    float64
	maxLen   int
	maxGap   int
}

func genCase(t *testing.T, seed int64) *testCase {
	t.Helper()
	return genCaseN(t, seed, 6, 10)
}

// genCaseN is genCase with a database of minN to minN+spanN-1 sequences.
func genCaseN(t *testing.T, seed int64, minN, spanN int) *testCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := 3 + rng.Intn(3)
	var c *compat.Matrix
	switch rng.Intn(3) {
	case 0:
		c = compat.Identity(m)
	case 1:
		var err error
		if c, err = compat.UniformNoise(m, 0.1+0.3*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	default:
		dense := make([][]float64, m)
		for i := range dense {
			dense[i] = make([]float64, m)
		}
		for j := 0; j < m; j++ {
			sum := 0.0
			for i := 0; i < m; i++ {
				v := rng.Float64()
				if rng.Intn(3) == 0 {
					v = 0
				}
				dense[i][j] = v
				sum += v
			}
			if sum == 0 {
				dense[j][j] = 1
				sum = 1
			}
			for i := 0; i < m; i++ {
				dense[i][j] /= sum
			}
		}
		var err error
		if c, err = compat.New(dense); err != nil {
			t.Fatal(err)
		}
	}
	n := minN + rng.Intn(spanN)
	db := make([][]pattern.Symbol, n)
	motif := make([]pattern.Symbol, 2+rng.Intn(2))
	for i := range motif {
		motif[i] = pattern.Symbol(rng.Intn(m))
	}
	for i := range db {
		l := 3 + rng.Intn(9)
		seq := make([]pattern.Symbol, l)
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(m))
		}
		if l >= len(motif) && rng.Float64() < 0.5 {
			copy(seq[rng.Intn(l-len(motif)+1):], motif)
		}
		db[i] = seq
	}
	return &testCase{
		c:        c,
		db:       db,
		minMatch: 0.15 + 0.45*rng.Float64(),
		delta:    []float64{1e-4, 0.05, 0.2}[rng.Intn(3)],
		maxLen:   3 + rng.Intn(2),
		maxGap:   rng.Intn(2),
	}
}

func (tc *testCase) streamConfig(workers, sampleSize int) stream.Config {
	return stream.Config{
		C:          tc.c,
		MinMatch:   tc.minMatch,
		Delta:      tc.delta,
		SampleSize: sampleSize,
		MaxLen:     tc.maxLen,
		MaxGap:     tc.maxGap,
		MemBudget:  3, // small: forces multi-round border collapsing
		Workers:    workers,
		Seed:       42,
	}
}

// batchMine runs the from-scratch pipeline over db with a full-window sample
// — the reference every streamed prefix must match. It pins the level-wise
// Phase 2 engine, the stream's: the growth engine's Values omit the
// candidates its bound prunes.
func batchMine(t *testing.T, tc *testCase, db [][]pattern.Symbol, workers, sampleSize int) *core.Result {
	t.Helper()
	res, err := core.Mine(seqdb.NewMemDB(db), tc.c, core.Config{
		MinMatch:     tc.minMatch,
		Delta:        tc.delta,
		SampleSize:   sampleSize,
		MaxLen:       tc.maxLen,
		MaxGap:       tc.maxGap,
		MemBudget:    3,
		Workers:      workers,
		Phase2Engine: core.Phase2Levelwise,
		Rng:          rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func newLog(t *testing.T) *seqdb.AppendDB {
	t.Helper()
	db, err := seqdb.CreateAppend(filepath.Join(t.TempDir(), "log.lsa"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func appendBatch(t *testing.T, db *seqdb.AppendDB, seqs [][]pattern.Symbol) {
	t.Helper()
	for _, seq := range seqs {
		if _, err := db.Append(seq); err != nil {
			t.Fatal(err)
		}
	}
}

func setKeys(s *pattern.Set) []string {
	ps := s.Patterns()
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.Key()
	}
	return keys
}

// TestReplayMatchesBatchBitwise is the strict differential: feeding the
// database in K-sequence batches must reproduce the from-scratch pipeline
// bit-identically after every batch — frequent set, border, symbol matches,
// candidate count and every sample value. The small cases fit in one
// 32-sequence shard of the Phase 2 kernel; the large ones, 40–100 sequences
// in batches of 1, 3 and 7, span two to four, whose merged sums every
// Advance must reproduce too.
func TestReplayMatchesBatchBitwise(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tc := genCase(t, seed)
		for _, k := range []int{1, 2, 3, 5, len(tc.db)} {
			replayBitwise(t, tc, seed, k)
		}
	}
	for seed := int64(1); seed <= 16; seed++ {
		tc := genCaseN(t, seed, 40, 61)
		for _, k := range []int{1, 3, 7} {
			replayBitwise(t, tc, seed, k)
		}
	}
}

// replayBitwise feeds tc.db to a fresh stream in k-sequence batches and
// compares every Advance with batchMine of the prefix.
func replayBitwise(t *testing.T, tc *testCase, seed int64, k int) {
	t.Helper()
	log := newLog(t)
	s, err := stream.New(log, tc.streamConfig(0, len(tc.db)))
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tc.db); lo += k {
		hi := min(lo+k, len(tc.db))
		appendBatch(t, log, tc.db[lo:hi])
		res, err := s.Advance(context.Background())
		if err != nil {
			t.Fatalf("seed %d k %d batch [%d,%d): %v", seed, k, lo, hi, err)
		}
		ref := batchMine(t, tc, tc.db[:hi], 0, len(tc.db))
		if got, want := setKeys(res.Frequent), setKeys(ref.Frequent); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d k %d prefix %d: frequent %v, batch mine %v", seed, k, hi, got, want)
		}
		if got, want := setKeys(res.Border), setKeys(ref.Border); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d k %d prefix %d: border %v, batch mine %v", seed, k, hi, got, want)
		}
		if !reflect.DeepEqual(res.SymbolMatch, ref.SymbolMatch) {
			t.Fatalf("seed %d k %d prefix %d: symbol matches diverge\n got %v\nwant %v",
				seed, k, hi, res.SymbolMatch, ref.SymbolMatch)
		}
		if len(res.Phase2.Values) != len(ref.Phase2.Values) {
			t.Fatalf("seed %d k %d prefix %d: %d candidates, batch mine %d",
				seed, k, hi, len(res.Phase2.Values), len(ref.Phase2.Values))
		}
		for key, want := range ref.Phase2.Values {
			if got, ok := res.Phase2.Values[key]; !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d k %d prefix %d: value[%s] = %v, batch mine %v", seed, k, hi, key, got, want)
			}
		}
	}
}

// TestReplayMatchesBatchAcrossWorkers runs the same replay at several worker
// counts and batch sizes and compares the final frequent set and border with
// a batch mine at the same worker count.
func TestReplayMatchesBatchAcrossWorkers(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tc := genCase(t, seed)
		for _, workers := range []int{0, 3} {
			for _, k := range []int{2, 4} {
				log := newLog(t)
				s, err := stream.New(log, tc.streamConfig(workers, len(tc.db)))
				if err != nil {
					t.Fatal(err)
				}
				var res *stream.Result
				for lo := 0; lo < len(tc.db); lo += k {
					hi := lo + k
					if hi > len(tc.db) {
						hi = len(tc.db)
					}
					appendBatch(t, log, tc.db[lo:hi])
					if res, err = s.Advance(context.Background()); err != nil {
						t.Fatalf("seed %d workers %d k %d: %v", seed, workers, k, err)
					}
				}
				ref := batchMine(t, tc, tc.db, workers, len(tc.db))
				if got, want := setKeys(res.Frequent), setKeys(ref.Frequent); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d workers %d k %d: frequent %v, batch mine %v", seed, workers, k, got, want)
				}
				if got, want := setKeys(res.Border), setKeys(ref.Border); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d workers %d k %d: border %v, batch mine %v", seed, workers, k, got, want)
				}
			}
		}
	}
}

// TestStationaryServesProbeCache drives a stationary two-sequence
// alternation under the identity matrix: every pattern value is exactly 0 or
// 0.5 after each even-sized batch, and the pattern [0,1] (value 0.5,
// threshold 0.4) stays ambiguous throughout. Every Phase 3 after the first
// must resolve [0,1] from the cached exact sum without a window scan.
// Summed over the batches, the stream counts strictly fewer probe patterns
// against the database than mining every prefix from scratch does.
func TestStationaryServesProbeCache(t *testing.T) {
	const batches, perBatch = 8, 2
	tc := &testCase{
		c:        compat.Identity(3),
		minMatch: 0.4,
		delta:    0.2,
		maxLen:   2,
		maxGap:   0,
	}
	a, b := []pattern.Symbol{0, 1}, []pattern.Symbol{2}
	for i := 0; i < batches; i++ {
		tc.db = append(tc.db, a, b)
	}
	log := newLog(t)
	s, err := stream.New(log, tc.streamConfig(0, len(tc.db)))
	if err != nil {
		t.Fatal(err)
	}
	cacheHits, probeBatches := 0, 0
	// Probe patterns counted against the database: the stream's exclude
	// those its cache served.
	streamProbed, batchProbed := 0, 0
	for lo := 0; lo < len(tc.db); lo += perBatch {
		appendBatch(t, log, tc.db[lo:lo+perBatch])
		res, err := s.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ref := batchMine(t, tc, tc.db[:lo+perBatch], 0, len(tc.db))
		if got, want := setKeys(res.Frequent), setKeys(ref.Frequent); !reflect.DeepEqual(got, want) {
			t.Fatalf("prefix %d: frequent %v, batch mine %v", lo+perBatch, got, want)
		}
		if res.Phase3 != nil {
			streamProbed += res.Phase3.Probed - res.ReprobesAvoided
		}
		if ref.Phase3 != nil {
			batchProbed += ref.Phase3.Probed
		}
		if lo == 0 {
			continue
		}
		if res.Phase3 != nil {
			probeBatches++
			if res.ReprobesAvoided == 0 {
				t.Fatalf("prefix %d: [0,1] was probed in an earlier batch but not served from cache", lo+perBatch)
			}
			cacheHits += res.ReprobesAvoided
		}
	}
	if probeBatches == 0 || cacheHits == 0 {
		t.Fatalf("the persistently ambiguous pattern never exercised the probe cache (batches=%d hits=%d)", probeBatches, cacheHits)
	}
	if streamProbed >= batchProbed {
		t.Fatalf("stream probed %d patterns against the database, re-mining every prefix probed %d", streamProbed, batchProbed)
	}
	t.Logf("probe patterns counted against the database: stream %d, batch mines %d", streamProbed, batchProbed)
}

// TestIdleAdvance: an Advance with nothing appended must be free — no
// re-mine, no window scan, unchanged results.
func TestIdleAdvance(t *testing.T) {
	tc := genCase(t, 5)
	log := newLog(t)
	s, err := stream.New(log, tc.streamConfig(0, len(tc.db)))
	if err != nil {
		t.Fatal(err)
	}
	appendBatch(t, log, tc.db)
	busy, err := s.Advance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	log.ResetScans()
	idle, err := s.Advance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if idle.Appended != 0 || idle.Remined || idle.Scans != 0 {
		t.Fatalf("idle advance: appended=%d remined=%v scans=%d", idle.Appended, idle.Remined, idle.Scans)
	}
	if log.Scans() != 0 {
		t.Fatalf("idle advance cost %d window passes", log.Scans())
	}
	if got, want := setKeys(idle.Frequent), setKeys(busy.Frequent); !reflect.DeepEqual(got, want) {
		t.Fatalf("idle advance changed the frequent set: %v vs %v", got, want)
	}
}

// TestEmptyLog: advancing over an empty log yields an empty result.
func TestEmptyLog(t *testing.T) {
	tc := genCase(t, 2)
	log := newLog(t)
	s, err := stream.New(log, tc.streamConfig(0, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Advance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Frequent.Len() != 0 || res.Border.Len() != 0 || res.Total != 0 {
		t.Fatalf("empty log mined %v", setKeys(res.Frequent))
	}
}

// TestWindowExpiryMatchesFreshWindow slides a window over the log and checks
// after every batch that the stream equals (a) a from-scratch batch mine of
// the live window, and (b) a fresh stream fed a fresh log holding only the
// live window — including the reservoir sample and symbol statistics.
func TestWindowExpiryMatchesFreshWindow(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tc := genCase(t, seed)
		const window = 5
		cfg := tc.streamConfig(0, len(tc.db))
		cfg.Window = window
		log := newLog(t)
		s, err := stream.New(log, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(tc.db); lo += 3 {
			hi := lo + 3
			if hi > len(tc.db) {
				hi = len(tc.db)
			}
			appendBatch(t, log, tc.db[lo:hi])
			res, err := s.Advance(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			start := hi - window
			if start < 0 {
				start = 0
			}
			live := tc.db[start:hi]
			if res.Total-res.Appended > hi || log.Start() != start {
				t.Fatalf("seed %d: window start %d, want %d", seed, log.Start(), start)
			}
			ref := batchMine(t, tc, live, 0, len(tc.db))
			if got, want := setKeys(res.Frequent), setKeys(ref.Frequent); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d window [%d,%d): frequent %v, batch mine of window %v", seed, start, hi, got, want)
			}
			if !reflect.DeepEqual(res.SymbolMatch, ref.SymbolMatch) {
				t.Fatalf("seed %d window [%d,%d): symbol matches diverge", seed, start, hi)
			}

			// A fresh stream over a log holding only the live window must
			// land in the same state, sample included.
			fresh := newLog(t)
			appendBatch(t, fresh, live)
			fs, err := stream.New(fresh, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := fs.Advance(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := setKeys(fres.Frequent), setKeys(res.Frequent); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: fresh-window stream frequent %v, slid stream %v", seed, got, want)
			}
			st, fst := s.State(), fs.State()
			if !reflect.DeepEqual(st.Sample, fst.Sample) {
				t.Fatalf("seed %d: slid sample %v, fresh-window sample %v", seed, st.Sample, fst.Sample)
			}
			if !reflect.DeepEqual(st.SymbolSums, fst.SymbolSums) {
				t.Fatalf("seed %d: slid symbol sums diverge from fresh-window stream", seed)
			}
		}
	}
}

// TestWindowExpirySubsampled repeats the sliding-window replay with a
// reservoir smaller than the window: the slid stream must still be
// indistinguishable from a fresh stream over the live window — the stateless
// draws make the sample a pure function of the window contents.
func TestWindowExpirySubsampled(t *testing.T) {
	tc := genCase(t, 7)
	cfg := tc.streamConfig(2, 3) // reservoir of 3 under a window of 6
	cfg.Window = 6
	log := newLog(t)
	s, err := stream.New(log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(tc.db); lo += 2 {
		hi := lo + 2
		if hi > len(tc.db) {
			hi = len(tc.db)
		}
		appendBatch(t, log, tc.db[lo:hi])
		res, err := s.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		start := hi - cfg.Window
		if start < 0 {
			start = 0
		}
		fresh := newLog(t)
		appendBatch(t, fresh, tc.db[start:hi])
		fs, err := stream.New(fresh, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fres, err := fs.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := setKeys(res.Frequent), setKeys(fres.Frequent); !reflect.DeepEqual(got, want) {
			t.Fatalf("window [%d,%d): slid frequent %v, fresh %v", start, hi, got, want)
		}
		st, fst := s.State(), fs.State()
		if !reflect.DeepEqual(st.Sample, fst.Sample) {
			t.Fatalf("window [%d,%d): slid sample %v, fresh %v", start, hi, st.Sample, fst.Sample)
		}
		if !reflect.DeepEqual(res.Phase2.Values, fres.Phase2.Values) {
			t.Fatalf("window [%d,%d): sample values diverge", start, hi)
		}
	}
}

// cloneMine deep-copies a miner.Result the way a checkpoint round-trip
// rebuilds it, so a restored stream shares no state with the original.
func cloneMine(r *miner.Result) *miner.Result {
	if r == nil {
		return nil
	}
	dup := *r
	dup.Frequent = r.Frequent.Clone()
	dup.Ambiguous = r.Ambiguous.Clone()
	dup.Values = make(map[string]float64, len(r.Values))
	for k, v := range r.Values {
		dup.Values[k] = v
	}
	dup.Spreads = make(map[string]float64, len(r.Spreads))
	for k, v := range r.Spreads {
		dup.Spreads[k] = v
	}
	dup.Labels = make(map[string]chernoff.Label, len(r.Labels))
	for k, v := range r.Labels {
		dup.Labels[k] = v
	}
	return &dup
}

// TestRestoreContinuesIdentically snapshots a stream mid-replay, restores it
// into a fresh stream.Stream, and runs both over the remaining batches in lockstep:
// every result must be bit-identical — stream.State round-trips losslessly.
func TestRestoreContinuesIdentically(t *testing.T) {
	tc := genCase(t, 6)
	log := newLog(t)
	cfg := tc.streamConfig(0, len(tc.db))
	s, err := stream.New(log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	split := len(tc.db) / 2
	appendBatch(t, log, tc.db[:split])
	if _, err := s.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}

	restored, err := stream.Restore(log, cfg, s.State(), cloneMine(s.LastMine()))
	if err != nil {
		t.Fatal(err)
	}
	for lo := split; lo < len(tc.db); lo += 2 {
		hi := lo + 2
		if hi > len(tc.db) {
			hi = len(tc.db)
		}
		appendBatch(t, log, tc.db[lo:hi])
		a, err := s.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(setKeys(a.Frequent), setKeys(b.Frequent)) ||
			!reflect.DeepEqual(setKeys(a.Border), setKeys(b.Border)) {
			t.Fatalf("restored stream diverged at prefix %d: %v vs %v", hi, setKeys(b.Frequent), setKeys(a.Frequent))
		}
		if a.Remined != b.Remined {
			t.Fatalf("restored stream re-mine decision diverged at prefix %d: %v vs %v", hi, b.Remined, a.Remined)
		}
		if !reflect.DeepEqual(a.Phase2.Values, b.Phase2.Values) {
			t.Fatalf("restored stream values diverged at prefix %d", hi)
		}
	}
	// The final serialized states must agree too.
	if !reflect.DeepEqual(s.State(), restored.State()) {
		t.Fatal("final states diverge after lockstep replay")
	}
}

// TestRestoreRejectsInconsistentState: a state whose sample occupancy does
// not match its cursor and window is refused rather than silently adopted.
func TestRestoreRejectsInconsistentState(t *testing.T) {
	tc := genCase(t, 1)
	log := newLog(t)
	cfg := tc.streamConfig(0, len(tc.db))
	s, err := stream.New(log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	appendBatch(t, log, tc.db[:4])
	if _, err := s.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.State()
	st.Sample = st.Sample[:len(st.Sample)-1]
	if _, err := stream.Restore(log, cfg, st, nil); err == nil {
		t.Fatal("Restore accepted a state with a truncated sample")
	}
	bad := s.State()
	bad.SymbolSums = bad.SymbolSums[:1]
	if _, err := stream.Restore(log, cfg, bad, nil); err == nil {
		t.Fatal("Restore accepted mismatched symbol sums")
	}
}

// TestConfigValidate exercises the config guard rails.
func TestConfigValidate(t *testing.T) {
	tc := genCase(t, 1)
	log := newLog(t)
	good := tc.streamConfig(0, 4)
	bad := []func(*stream.Config){
		func(c *stream.Config) { c.C = nil },
		func(c *stream.Config) { c.MinMatch = 0 },
		func(c *stream.Config) { c.MinMatch = 1.5 },
		func(c *stream.Config) { c.Delta = 2 },
		func(c *stream.Config) { c.SampleSize = 0 },
		func(c *stream.Config) { c.MaxLen = 0 },
		func(c *stream.Config) { c.Window = -1 },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := stream.New(log, cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := stream.New(log, good); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestReadOnlyFollowerSeesWriterExpiry: when the log's writer owns expiry
// (ExpireBefore on its handle) and the stream follows on a read-only handle,
// every Advance must consume exactly the log's live window [Start, Total)
// and mine the same frequent set as a batch mine of it.
func TestReadOnlyFollowerSeesWriterExpiry(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tc := genCase(t, seed)
		const window = 4
		writer := newLog(t)
		follower, err := seqdb.OpenAppendRead(writer.Path())
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Close()
		s, err := stream.New(follower, tc.streamConfig(0, len(tc.db)))
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(tc.db); lo += 3 {
			hi := min(lo+3, len(tc.db))
			appendBatch(t, writer, tc.db[lo:hi])
			if total := writer.Total(); total-writer.Start() > window {
				if err := writer.ExpireBefore(total - window); err != nil {
					t.Fatal(err)
				}
			}
			res, err := s.Advance(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			st := s.State()
			if st.WindowStart != writer.Start() || st.Cursor != writer.Total() {
				t.Fatalf("seed %d: follower consumed [%d, %d), the log's live window is [%d, %d)",
					seed, st.WindowStart, st.Cursor, writer.Start(), writer.Total())
			}
			ref := batchMine(t, tc, tc.db[writer.Start():hi], 0, len(tc.db))
			if got, want := setKeys(res.Frequent), setKeys(ref.Frequent); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d window [%d,%d): frequent %v, batch mine %v", seed, writer.Start(), hi, got, want)
			}
		}
	}
}

// TestFrequentSetMovesWithoutRemine pins a frequent set that changes on
// batches whose re-mine changes nothing: one-sequence batches alternate
// [0 1] and [1 0] under the identity matrix at min_match 0.5, so the
// ambiguous [1 0] has an exact match of 0.5 after every even batch and just
// below it after every odd one. From batch 5 on, every re-mine returns the
// same Phase 2 frequent and ambiguous sets, while Phase 3, resolving [1 0]
// against the grown window, moves the frequent set on every batch. Every
// batch's set equals a batch mine of the prefix.
func TestFrequentSetMovesWithoutRemine(t *testing.T) {
	tc := &testCase{c: compat.Identity(2), minMatch: 0.5, delta: 0.2, maxLen: 2}
	for i := 0; i < 12; i++ {
		tc.db = append(tc.db, []pattern.Symbol{pattern.Symbol(i % 2), pattern.Symbol(1 - i%2)})
	}
	log := newLog(t)
	s, err := stream.New(log, tc.streamConfig(0, len(tc.db)))
	if err != nil {
		t.Fatal(err)
	}
	var prev []string
	var prevPhase2 [2][]string
	for i := range tc.db {
		appendBatch(t, log, tc.db[i:i+1])
		res, err := s.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := setKeys(res.Frequent)
		if want := setKeys(batchMine(t, tc, tc.db[:i+1], 0, len(tc.db)).Frequent); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: frequent %v, batch mine %v", i+1, got, want)
		}
		phase2 := [2][]string{setKeys(res.Phase2.Frequent), setKeys(res.Phase2.Ambiguous)}
		if i+1 >= 5 {
			if i+1 > 5 && !reflect.DeepEqual(phase2, prevPhase2) {
				t.Fatalf("batch %d: Phase 2 sets %v, the batch before %v", i+1, phase2, prevPhase2)
			}
			if reflect.DeepEqual(got, prev) {
				t.Fatalf("batch %d: frequent set %v did not move", i+1, got)
			}
		}
		prev, prevPhase2 = got, phase2
	}
}
