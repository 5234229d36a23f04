package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

const (
	d1 = pattern.Symbol(0)
	d2 = pattern.Symbol(1)
	d3 = pattern.Symbol(2)
	d4 = pattern.Symbol(3)
)

func fig4DB() *seqdb.MemDB {
	return seqdb.NewMemDB([][]pattern.Symbol{
		{d1, d2, d3, d1},
		{d4, d2, d1},
		{d3, d4, d2, d1},
		{d2, d2},
	})
}

// noisyProteinDB builds a small planted-motif database with uniform noise —
// the §5.1 test-database construction at miniature scale. Note that uniform
// noise makes every matrix cell positive, so every pattern has positive
// match and a low threshold explores the entire bounded lattice (the Fig 9
// blowup); tests therefore keep the spaces small.
func noisyProteinDB(t *testing.T, seed int64, n int, alpha float64) (*seqdb.MemDB, *compat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const m = 6
	std, _, err := datagen.Protein(datagen.ProteinConfig{
		N: n, M: m, MinLen: 10, MaxLen: 14,
		Motifs:    []pattern.Pattern{pattern.MustNew(0, 1, 2)},
		PlantProb: 0.7,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	test, err := datagen.ApplyUniformNoise(std, m, alpha, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compat.UniformNoise(m, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return test, c
}

func setsEqual(t *testing.T, got, want *pattern.Set, label string) {
	t.Helper()
	for _, p := range want.Patterns() {
		if !got.Contains(p) {
			t.Errorf("%s: missing %v", label, p)
		}
	}
	for _, p := range got.Patterns() {
		if !want.Contains(p) {
			t.Errorf("%s: extra %v", label, p)
		}
	}
}

func TestMineFullSampleEqualsExhaustive(t *testing.T) {
	// With the sample covering the whole database, the three-phase result is
	// provably exact regardless of delta; check both finalizers against the
	// exhaustive reference.
	db, c := noisyProteinDB(t, 1, 50, 0.15)
	const minMatch = 0.1
	opts := miner.Options{MaxLen: 4, MaxGap: 0}
	truth, err := Exhaustive(db, c, minMatch, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, fin := range []Finalizer{BorderCollapsing, LevelWise} {
		res, err := Mine(db, c, Config{
			MinMatch:   minMatch,
			SampleSize: db.Len(),
			MaxLen:     4,
			MaxGap:     0,
			MemBudget:  50,
			Finalizer:  fin,
			Rng:        rand.New(rand.NewSource(2)),
		})
		if err != nil {
			t.Fatal(err)
		}
		setsEqual(t, res.Frequent, truth.Frequent, fin.String())
		setsEqual(t, res.Border, pattern.Border(truth.Frequent), fin.String()+" border")
		if res.SampleSize != db.Len() {
			t.Errorf("SampleSize=%d", res.SampleSize)
		}
	}
}

func TestMinePartialSampleCloseToExhaustive(t *testing.T) {
	// With a partial sample and the paper's delta, the conservative Chernoff
	// bound routes nearly everything through exact probing; on this seeded
	// workload the result is exact.
	db, c := noisyProteinDB(t, 3, 100, 0.1)
	const minMatch = 0.15
	opts := miner.Options{MaxLen: 3, MaxGap: 1}
	truth, err := Exhaustive(db, c, minMatch, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(db, c, Config{
		MinMatch:   minMatch,
		SampleSize: 40,
		MaxLen:     3,
		MaxGap:     1,
		MemBudget:  100,
		Rng:        rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	setsEqual(t, res.Frequent, truth.Frequent, "partial sample")
}

func TestMineScanAccounting(t *testing.T) {
	db, c := noisyProteinDB(t, 5, 50, 0.1)
	for _, workers := range []int{0, 1, 3} {
		db.ResetScans()
		res, err := Mine(db, c, Config{
			MinMatch:   0.15,
			SampleSize: 20,
			MaxLen:     3,
			MaxGap:     0,
			MemBudget:  10,
			Workers:    workers,
			Rng:        rand.New(rand.NewSource(6)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if db.Scans() != res.Scans {
			t.Errorf("workers=%d: db counted %d scans, result reports %d", workers, db.Scans(), res.Scans)
		}
		if res.Scans < 1 {
			t.Errorf("workers=%d: at least Phase 1's scan must be counted", workers)
		}
		if res.Phase3 == nil || res.Phase3.Scans == 0 {
			t.Fatalf("workers=%d: no Phase 3 probe scans; the workload must exercise them", workers)
		}
		if res.Scans != 1+res.Phase3.Scans {
			t.Errorf("workers=%d: Scans=%d, phase3=%d", workers, res.Scans, res.Phase3.Scans)
		}
	}
}

func TestMineFinalizerNone(t *testing.T) {
	db, c := noisyProteinDB(t, 7, 40, 0.1)
	db.ResetScans()
	res, err := Mine(db, c, Config{
		MinMatch:   0.15,
		SampleSize: 10,
		MaxLen:     3,
		Finalizer:  None,
		Rng:        rand.New(rand.NewSource(8)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phase3 != nil {
		t.Error("None finalizer must skip Phase 3")
	}
	if db.Scans() != 1 {
		t.Errorf("None finalizer used %d scans, want 1", db.Scans())
	}
	setsEqual(t, res.Frequent, res.Phase2.Frequent, "None")
}

func TestMineFinalizersAgreeUnderHeavyAmbiguity(t *testing.T) {
	// A tiny sample makes ε wide and floods Phase 3 with ambiguous patterns;
	// both finalizers must still produce the identical exact frequent set.
	// (Scan-count ordering is workload dependent — collapse wins on deep
	// borders, bottom-up on shallow ones, per §4.3's closing discussion —
	// and is asserted on controlled chains in the levelwise package tests.)
	db, c := noisyProteinDB(t, 9, 60, 0.2)
	runWith := func(fin Finalizer) *Result {
		res, err := Mine(db, c, Config{
			MinMatch:              0.1,
			SampleSize:            15, // small sample → wide ε → many ambiguous
			MaxLen:                5,
			MaxGap:                0,
			MaxCandidatesPerLevel: 150,
			MemBudget:             5,
			Finalizer:             fin,
			Rng:                   rand.New(rand.NewSource(10)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bc := runWith(BorderCollapsing)
	lw := runWith(LevelWise)
	setsEqual(t, bc.Frequent, lw.Frequent, "finalizer equivalence")
	if bc.Phase3 == nil || lw.Phase3 == nil {
		t.Fatal("expected ambiguous patterns with a 15-sequence sample")
	}
	// (No exhaustive comparison here: MaxCandidatesPerLevel truncation keys
	// on the observed values, so the sample run and an exhaustive run would
	// legitimately explore different truncated spaces.)
}

func TestMineOnDiskDB(t *testing.T) {
	mem, c := noisyProteinDB(t, 11, 40, 0.1)
	path := t.TempDir() + "/db.lsq"
	if err := seqdb.WriteFile(path, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := seqdb.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinMatch: 0.15, SampleSize: 20, MaxLen: 3, MaxGap: 1, MemBudget: 50}
	cfg.Rng = rand.New(rand.NewSource(12))
	fromDisk, err := Mine(disk, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rng = rand.New(rand.NewSource(12))
	fromMem, err := Mine(mem, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	setsEqual(t, fromDisk.Frequent, fromMem.Frequent, "disk vs mem")
	if disk.Scans() != fromDisk.Scans {
		t.Errorf("disk pass counter %d vs result %d", disk.Scans(), fromDisk.Scans)
	}
}

func TestMineValidation(t *testing.T) {
	db := fig4DB()
	c := compat.Fig2()
	rng := rand.New(rand.NewSource(1))
	bad := []Config{
		{MinMatch: 0, MaxLen: 3, Rng: rng},
		{MinMatch: 1.5, MaxLen: 3, Rng: rng},
		{MinMatch: 0.1, MaxLen: 0, Rng: rng},
		{MinMatch: 0.1, MaxLen: 3, MaxGap: -1, Rng: rng},
		{MinMatch: 0.1, MaxLen: 3, Rng: nil},
		{MinMatch: 0.1, MaxLen: 3, Delta: 2, Rng: rng},
		{MinMatch: 0.1, MaxLen: 3, SampleSize: -1, Rng: rng},
		{MinMatch: 0.1, MaxLen: 3, MemBudget: -1, Rng: rng},
		{MinMatch: 0.1, MaxLen: 3, Finalizer: Finalizer(9), Rng: rng},
	}
	for i, cfg := range bad {
		if _, err := Mine(db, c, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	empty := seqdb.NewMemDB(nil)
	if _, err := Mine(empty, c, Config{MinMatch: 0.1, MaxLen: 3, Rng: rng}); err == nil {
		t.Error("empty database accepted")
	}
}

func TestMineSampleClampedToDB(t *testing.T) {
	db := fig4DB()
	res, err := Mine(db, compat.Fig2(), Config{
		MinMatch: 0.1, SampleSize: 100, MaxLen: 2, Rng: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleSize != 4 {
		t.Errorf("SampleSize=%d, want 4", res.SampleSize)
	}
}

func TestPhase1MatchesStandaloneComputation(t *testing.T) {
	db := fig4DB()
	c := compat.Fig2()
	sym, sample, err := Phase1(db, c, 2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.7, 0.8, 0.3875, 0.425, 0.075}
	for i := range want {
		if diff := sym[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("match[d%d]=%v, want %v", i+1, sym[i], want[i])
		}
	}
	if len(sample) != 2 {
		t.Errorf("sampled %d sequences", len(sample))
	}
}

func TestExhaustiveSupportAgreesWithIdentityMatch(t *testing.T) {
	db := fig4DB()
	opts := miner.Options{MaxLen: 3, MaxGap: 1}
	viaSupport, err := ExhaustiveSupport(db, 0.5, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaMatch, err := Exhaustive(db, compat.Identity(5), 0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	setsEqual(t, viaSupport.Frequent, viaMatch.Frequent, "support vs identity match")
}

func TestFinalizerString(t *testing.T) {
	for f, want := range map[Finalizer]string{
		BorderCollapsing: "border-collapsing",
		LevelWise:        "level-wise",
		None:             "none",
	} {
		if f.String() != want {
			t.Errorf("%d.String()=%q", f, f.String())
		}
	}
	if Finalizer(9).String() == "" {
		t.Error("unknown finalizer should still render")
	}
}

func ExampleMine() {
	// Mine the paper's Figure 4(a) database with the Figure 2 matrix at
	// min_match = 0.3; the border holds the maximal frequent patterns.
	db := seqdb.NewMemDB([][]pattern.Symbol{
		{0, 1, 2, 0},
		{3, 1, 0},
		{2, 3, 1, 0},
		{1, 1},
	})
	res, err := Mine(db, compat.Fig2(), Config{
		MinMatch:   0.3,
		SampleSize: 4,
		MaxLen:     3,
		MaxGap:     1,
		Rng:        rand.New(rand.NewSource(1)),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, p := range res.Border.Patterns() {
		fmt.Println(p)
	}
	// Output:
	// d2 d1
	// d3
	// d4 * d1
	// d4 d2
}

func TestMineParallelWorkersMatchSequential(t *testing.T) {
	db, c := noisyProteinDB(t, 15, 80, 0.15)
	run := func(workers int) *Result {
		res, err := Mine(db, c, Config{
			MinMatch: 0.1, SampleSize: 20, MaxLen: 4, MaxGap: 0,
			MemBudget: 30, Workers: workers,
			Rng: rand.New(rand.NewSource(16)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(0)
	for _, workers := range []int{-1, 2, 4} {
		par := run(workers)
		setsEqual(t, par.Frequent, seq.Frequent, "parallel vs sequential")
		if par.Scans != seq.Scans {
			t.Errorf("workers=%d: %d scans vs %d", workers, par.Scans, seq.Scans)
		}
	}
}

func TestMineRandomizedPipelineEquivalence(t *testing.T) {
	// Across random seeds, the probabilistic pipeline (with the paper's
	// conservative default δ) and the exhaustive reference agree on
	// concentrated-noise workloads.
	for seed := int64(100); seed < 105; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const m = 8
		sub := make([][]float64, m)
		for i := range sub {
			sub[i] = make([]float64, m)
			sub[i][i] = 0.75
			sub[i][i^1] += 0.25
		}
		c, err := compat.FromChannel(sub, nil)
		if err != nil {
			t.Fatal(err)
		}
		std, _, err := datagen.Protein(datagen.ProteinConfig{
			N: 150, M: m, MinLen: 10, MaxLen: 16,
			Motifs:    []pattern.Pattern{pattern.MustNew(0, 2, 4)},
			PlantProb: 0.5,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		test, err := datagen.ApplyChannelNoise(std, sub, rng)
		if err != nil {
			t.Fatal(err)
		}
		const minMatch = 0.08
		truth, err := Exhaustive(test, c, minMatch, miner.Options{MaxLen: 3, MaxGap: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Mine(test, c, Config{
			MinMatch: minMatch, SampleSize: 60, MaxLen: 3, MaxGap: 1,
			MemBudget: 40, Rng: rand.New(rand.NewSource(seed + 1000)),
		})
		if err != nil {
			t.Fatal(err)
		}
		setsEqual(t, res.Frequent, truth.Frequent, fmt.Sprintf("seed %d", seed))
	}
}

func TestMineImplicitFinalizerMatchesExplicitBorder(t *testing.T) {
	// MaxGap = MaxLen-2, so the truncated candidate space coincides with the
	// implicit form's full sub-pattern lattice (see the Finalizer docs).
	db, c := noisyProteinDB(t, 19, 60, 0.15)
	run := func(fin Finalizer) *Result {
		res, err := Mine(db, c, Config{
			MinMatch: 0.12, SampleSize: 25, MaxLen: 4, MaxGap: 2,
			MemBudget: 20, Finalizer: fin,
			Rng: rand.New(rand.NewSource(20)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	explicit := run(BorderCollapsing)
	implicit := run(BorderCollapsingImplicit)
	setsEqual(t, implicit.Border, explicit.Border, "implicit vs explicit border")
	// The implicit Frequent is the closure of the border and must cover the
	// explicit frequent set.
	for _, p := range explicit.Frequent.Patterns() {
		if !implicit.Frequent.Contains(p) {
			t.Errorf("implicit closure missing %v", p)
		}
	}
	if BorderCollapsingImplicit.String() != "border-collapsing-implicit" {
		t.Error("String broken")
	}
}
