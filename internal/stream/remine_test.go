package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chernoff"
	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// keptCase is a log longer than its reservoir: noisy sequences with planted
// motifs, so the lattice reaches several levels and appends replace
// reservoir members.
type keptCase struct {
	cfg     Config
	seqs    [][]pattern.Symbol
	batches []int // sequences appended before each Advance
}

func newKeptCase(t testing.TB, seed int64, sampleSize, n int) *keptCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const m = 5
	std, _, err := datagen.Protein(datagen.ProteinConfig{
		N: n, M: m, MinLen: 6, MaxLen: 14, NumMotifs: 2, MotifLen: 4, PlantProb: 0.5,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := datagen.ApplyUniformNoise(std, m, 0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
	var c *compat.Matrix
	if seed%2 == 0 {
		c = compat.Identity(m)
	} else if c, err = compat.UniformNoise(m, 0.15); err != nil {
		t.Fatal(err)
	}
	kc := &keptCase{cfg: Config{
		C: c, MinMatch: 0.25, Delta: 0.05, SampleSize: sampleSize, MaxLen: 4, MaxGap: 1,
		MemBudget: 8, Seed: seed,
	}}
	for i := 0; i < noisy.Len(); i++ {
		kc.seqs = append(kc.seqs, noisy.Seq(i))
	}
	for left := n; left > 0; {
		b := min(left, 1+rng.Intn(40))
		kc.batches = append(kc.batches, b)
		left -= b
	}
	return kc
}

func createLog(t testing.TB) *seqdb.AppendDB {
	t.Helper()
	db, err := seqdb.CreateAppend(filepath.Join(t.TempDir(), "log.lsa"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// freshRemine mines sample from scratch through the level-wise projection
// kernel: the reference every stream re-mine must equal bit for bit.
func freshRemine(t testing.TB, cfg Config, sample [][]pattern.Symbol, symbolMatch []float64) *miner.Result {
	t.Helper()
	valuer, inc := miner.IncrementalSampleValuer(cfg.C, sample, miner.IncrementalConfig{Workers: cfg.Workers})
	defer inc.Release()
	r, err := miner.SampleChernoffContext(context.Background(), cfg.C.Size(), valuer, symbolMatch,
		cfg.MinMatch, cfg.Delta, len(sample), miner.Options{
			MaxLen: cfg.MaxLen, MaxGap: cfg.MaxGap, MaxCandidatesPerLevel: cfg.MaxCandidatesPerLevel,
		})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sameMine reports how two mines differ: values bit for bit, labels and the
// frequent and ambiguous sets. It returns "" when they agree.
func sameMine(got, want *miner.Result) string {
	if len(got.Values) != len(want.Values) {
		return "candidate counts differ"
	}
	for key, w := range want.Values {
		g, ok := got.Values[key]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return "value of " + key + " differs"
		}
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		return "labels differ"
	}
	if !reflect.DeepEqual(got.Frequent.Patterns(), want.Frequent.Patterns()) ||
		!reflect.DeepEqual(got.Ambiguous.Patterns(), want.Ambiguous.Patterns()) {
		return "frequent or ambiguous sets differ"
	}
	return ""
}

func copyMine(r *miner.Result) *miner.Result {
	dup := *r
	dup.Frequent, dup.Ambiguous = r.Frequent.Clone(), r.Ambiguous.Clone()
	dup.Values = make(map[string]float64, len(r.Values))
	dup.Spreads = make(map[string]float64, len(r.Spreads))
	dup.Labels = make(map[string]chernoff.Label, len(r.Labels))
	for k := range r.Values {
		dup.Values[k], dup.Spreads[k], dup.Labels[k] = r.Values[k], r.Spreads[k], r.Labels[k]
	}
	return &dup
}

// TestRemineFromKeptMatches replays logs longer than a reservoir of 64 or
// more members (so the sample spans three shards and appends replace
// members) at Workers 1 and 3, with the writer expiring the log's head
// before some Advances. At every re-mined Advance:
//   - Phase2's values, labels and sets equal a fresh level-wise kernel mine
//     of State().Sample bit for bit;
//   - the members rescored equal the distinct slots the reservoir draws
//     changed since the previous re-mine (every slot after a rebuild).
//
// A stream restored halfway, which keeps no matches, stays bit-identical
// to the uninterrupted one at every later Advance, and after each rebuild
// the stream equals a fresh stream over the live window.
func TestRemineFromKeptMatches(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, workers := range []int{1, 3} {
			kc := newKeptCase(t, seed, 64+int(seed)*3, 420)
			kc.cfg.Workers = workers
			replayKept(t, kc, seed%2 == 1)
		}
	}
}

func replayKept(t *testing.T, kc *keptCase, expire bool) {
	t.Helper()
	ctx := context.Background()
	cfg := kc.cfg
	m := &telemetry.Metrics{}
	cfg.Metrics = m
	log := createLog(t)
	s, err := New(log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var restored *Stream
	pending := make(map[int]bool) // slots changed since the last re-mine
	remines, rebuilds, rescoredBefore := 0, 0, int64(0)
	lo := 0
	for i, b := range kc.batches {
		for _, seq := range kc.seqs[lo : lo+b] {
			rel := log.Total() - log.Start()
			if _, err := log.Append(seq); err != nil {
				t.Fatal(err)
			}
			if rel < cfg.SampleSize {
				pending[rel] = true
			} else if j := drawIndex(cfg.Seed, rel); j < cfg.SampleSize {
				pending[j] = true
			}
		}
		lo += b
		if expire && i%5 == 4 {
			if err := log.ExpireBefore(log.Total() - 150); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Advance(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Expired > 0 {
			// A rebuild redraws the reservoir: every slot is new.
			clear(pending)
			for j := range res.SampleSize {
				pending[j] = true
			}
		}
		tag := func() string { return fmt.Sprintf("seed %d workers %d advance %d", cfg.Seed, cfg.Workers, i) }
		if res.Remined {
			remines++
			st := s.State()
			if diff := sameMine(res.Phase2, freshRemine(t, cfg, st.Sample, res.SymbolMatch)); diff != "" {
				t.Fatalf("%s: re-mine vs fresh kernel mine of the sample: %s", tag(), diff)
			}
			rescored := m.Snapshot().StreamRescored
			if got := rescored - rescoredBefore; got != int64(len(pending)) {
				t.Fatalf("%s: re-mine rescored %d members, %d slots changed since the previous one", tag(), got, len(pending))
			}
			rescoredBefore = rescored
			clear(pending)
		}
		if res.Expired > 0 {
			rebuilds++
			fresh := createLog(t)
			if err := log.ScanRangeContext(ctx, 0, log.Len(), func(_ int, seq []pattern.Symbol) error {
				_, err := fresh.Append(seq)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			fcfg := cfg
			fcfg.Metrics = nil
			fs, err := New(fresh, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := fs.Advance(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameMine(res.Phase2, fres.Phase2); diff != "" {
				t.Fatalf("%s: rebuilt stream vs a fresh stream over the live window: %s", tag(), diff)
			}
		}
		if restored != nil {
			rres, err := restored.Advance(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rres.Remined != res.Remined {
				t.Fatalf("%s: restored stream remined %v, uninterrupted %v", tag(), rres.Remined, res.Remined)
			}
			if diff := sameMine(rres.Phase2, res.Phase2); diff != "" {
				t.Fatalf("%s: restored stream vs uninterrupted: %s", tag(), diff)
			}
			if !reflect.DeepEqual(rres.Frequent.Patterns(), res.Frequent.Patterns()) {
				t.Fatalf("%s: restored stream's frequent set differs", tag())
			}
		}
		if i == len(kc.batches)/2 {
			rcfg := cfg
			rcfg.Metrics = nil
			if restored, err = Restore(log, rcfg, s.State(), copyMine(s.LastMine())); err != nil {
				t.Fatal(err)
			}
		}
	}
	if remines < 4 || len(s.kept) == 0 || expire && rebuilds == 0 {
		t.Fatalf("seed %d: %d re-mines, %d rebuilds, %d kept candidates: the replay exercised too little",
			cfg.Seed, remines, rebuilds, len(s.kept))
	}
	t.Logf("seed %d workers %d: %d advances, %d re-mines, %d rebuilds, %d kept candidates",
		cfg.Seed, cfg.Workers, len(kc.batches), remines, rebuilds, len(s.kept))
}

// TestKeptBudgetBelowMatches forces the keep budget below the size of the
// kept matches: a stream that can keep only a few candidates, or none, and
// values the rest over the full sample on every re-mine, gives the same
// values, labels, frequent sets and states as the unbounded stream at every
// Advance. The bounded stream also scores in chunks of three candidates.
func TestKeptBudgetBelowMatches(t *testing.T) {
	defer func(b int64, c int) { keepBudget, scoreBytes = b, c }(keepBudget, scoreBytes)
	for _, rows := range []int64{0, 5} {
		kc := newKeptCase(t, 3, 70, 360)
		logA, logB := createLog(t), createLog(t)
		keepBudget = 1 << 40
		full, err := New(logA, kc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := New(logB, kc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		lo, short := 0, false
		for i, b := range kc.batches {
			for _, log := range []*seqdb.AppendDB{logA, logB} {
				for _, seq := range kc.seqs[lo : lo+b] {
					if _, err := log.Append(seq); err != nil {
						t.Fatal(err)
					}
				}
			}
			lo += b
			keepBudget, scoreBytes = 1<<40, 4<<20
			x, err := full.Advance(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			n := min(kc.cfg.SampleSize, logB.Len())
			keepBudget, scoreBytes = rows*8*int64(n), 3*8*n
			y, err := bounded.Advance(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameMine(y.Phase2, x.Phase2); diff != "" {
				t.Fatalf("budget of %d rows, advance %d: %s", rows, i, diff)
			}
			if !reflect.DeepEqual(y.Frequent.Patterns(), x.Frequent.Patterns()) || x.Remined != y.Remined {
				t.Fatalf("budget of %d rows, advance %d: frequent sets or re-mine decisions differ", rows, i)
			}
			if !reflect.DeepEqual(full.State(), bounded.State()) {
				t.Fatalf("budget of %d rows, advance %d: states differ", rows, i)
			}
			short = short || len(bounded.kept) < len(y.Phase2.Values)
			if len(bounded.kept) > int(rows) {
				t.Fatalf("budget of %d rows, advance %d: %d candidates kept", rows, i, len(bounded.kept))
			}
		}
		if !short {
			t.Fatalf("budget of %d rows never left a candidate unkept", rows)
		}
	}
}

// levelCtx is a context whose Err reports cancellation from its calls+1-th
// call on: the mining engine checks it once per lattice level, so a re-mine
// under it values levels 1..calls and fails at the next.
type levelCtx struct {
	context.Context
	calls int
}

func (c *levelCtx) Err() error {
	if c.calls == 0 {
		return context.Canceled
	}
	c.calls--
	return nil
}

// TestFailedRemineForgetsKept cancels a re-mine after it has rescored two
// levels' kept matches in place. The stream must drop its kept matches and
// last mine, and its next Advance must re-mine every member and land on the
// values an uninterrupted stream holds.
func TestFailedRemineForgetsKept(t *testing.T) {
	kc := newKeptCase(t, 2, 66, 300)
	logA, logB := createLog(t), createLog(t)
	a, err := New(logA, kc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(logB, kc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, failed := 0, false
	for i, n := range kc.batches {
		for _, log := range []*seqdb.AppendDB{logA, logB} {
			for _, seq := range kc.seqs[lo : lo+n] {
				if _, err := log.Append(seq); err != nil {
					t.Fatal(err)
				}
			}
		}
		lo += n
		x, err := a.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !failed && b.lastMine != nil && len(b.kept) > 0 && b.db.Total() > b.cursor+kc.cfg.SampleSize/4 {
			if err := b.ingest(context.Background(), &Result{}); err != nil {
				t.Fatal(err)
			}
			b.symbolMatch = b.acc.Matches(b.cursor - b.windowStart)
			if err := b.remine(&levelCtx{Context: context.Background(), calls: 2}); err == nil {
				t.Fatal("a re-mine cancelled at level 3 succeeded")
			}
			if len(b.kept) != 0 || b.LastMine() != nil || len(b.changed) != len(b.sample) {
				t.Fatalf("after a failed re-mine: %d kept, last mine %v, %d of %d slots marked",
					len(b.kept), b.LastMine() != nil, len(b.changed), len(b.sample))
			}
			failed = true
		}
		y, err := b.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameMine(y.Phase2, x.Phase2); diff != "" {
			t.Fatalf("advance %d: %s", i, diff)
		}
	}
	if !failed {
		t.Fatal("no re-mine was cancelled")
	}
}

// FuzzStreamRemine drives an append schedule from bytes: the first sets a
// reservoir of 33–80 members, so the sample spans two or more shards, the
// second the matrix, threshold and sequence contents, and the rest the batch
// sizes, extended until the log is at least three reservoirs long, so
// appends replace members. After every re-mined Advance, Phase2's values
// must equal a fresh level-wise kernel mine of State().Sample bit for bit.
func FuzzStreamRemine(f *testing.F) {
	f.Add([]byte{0, 0, 7, 30, 2, 19, 39, 5})
	f.Add([]byte{47, 1, 255, 3, 3, 3, 60, 1, 90})
	f.Add([]byte{12, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sampleSize := 33 + int(data[0])%48
		rng := rand.New(rand.NewSource(int64(data[1])))
		const m = 4
		var c *compat.Matrix
		if data[1]%2 == 0 {
			c = compat.Identity(m)
		} else {
			var err error
			if c, err = compat.UniformNoise(m, 0.1+float64(data[1]%7)/20); err != nil {
				t.Fatal(err)
			}
		}
		cfg := Config{
			C: c, MinMatch: 0.15 + float64(data[1]%5)/20, Delta: 0.05, SampleSize: sampleSize,
			MaxLen: 4, MaxGap: int(data[0]>>7) & 1, Seed: int64(data[0]), Workers: 1 + int(data[1]>>6),
		}
		log := createLog(t)
		s, err := New(log, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sizes := data[2:]
		for i := 0; i < 40 && (i < len(sizes) || log.Total() < 3*sampleSize); i++ {
			n := 20
			if i < len(sizes) {
				n = 1 + int(sizes[i])%40
			}
			for range n {
				seq := make([]pattern.Symbol, 3+rng.Intn(9))
				for j := range seq {
					seq[j] = pattern.Symbol(rng.Intn(m))
				}
				if _, err := log.Append(seq); err != nil {
					t.Fatal(err)
				}
			}
			res, err := s.Advance(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Remined {
				continue
			}
			if diff := sameMine(res.Phase2, freshRemine(t, cfg, s.State().Sample, res.SymbolMatch)); diff != "" {
				t.Fatalf("advance %d (%d appended, sample %d): %s", i, log.Total(), sampleSize, diff)
			}
		}
	})
}

// TestFailedRebuildIsRedone cancels the Advance that must rebuild the
// stream after the writer expired the log's head. The stream must not
// adopt the new window start half built: the next Advance rebuilds again,
// reports the expiry, and equals a fresh stream over the live window in
// symbol matches, sample and values.
func TestFailedRebuildIsRedone(t *testing.T) {
	kc := newKeptCase(t, 3, 40, 200)
	log := createLog(t)
	s, err := New(log, kc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range kc.seqs[:120] {
		if _, err := log.Append(seq); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := log.ExpireBefore(60); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Advance(cancelled); err == nil {
		t.Fatal("a cancelled rebuild succeeded")
	}
	res, err := s.Advance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fresh := createLog(t)
	for _, seq := range kc.seqs[60:120] {
		if _, err := fresh.Append(seq); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := New(fresh, kc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fs.Advance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired != 60 || res.Total != 120 {
		t.Fatalf("redone rebuild reported %d expired, total %d; want 60, 120", res.Expired, res.Total)
	}
	if !reflect.DeepEqual(res.SymbolMatch, fres.SymbolMatch) || !reflect.DeepEqual(s.State().Sample, fs.State().Sample) {
		t.Fatal("redone rebuild's symbol matches or sample differ from a fresh stream's")
	}
	if diff := sameMine(res.Phase2, fres.Phase2); diff != "" {
		t.Fatalf("redone rebuild vs a fresh stream: %s", diff)
	}
}
