package core

import (
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// sparseWorld builds a large-ish alphabet workload with a sparse matrix.
func sparseWorld(t *testing.T, m, n int, seed int64) (*seqdb.MemDB, *compat.SparseMatrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, mut, err := datagen.SparseNoise(m, 0.2, 10.0/float64(m-1), rng)
	if err != nil {
		t.Fatal(err)
	}
	motifs := []pattern.Pattern{{0, pattern.Symbol(m / 3), pattern.Symbol(m / 2)}}
	std, err := datagen.Uniform(n, 30, m, motifs, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	test, err := datagen.ApplyMutator(std, mut, rng)
	if err != nil {
		t.Fatal(err)
	}
	return test, c
}

func TestMineSweepMatchesExhaustive(t *testing.T) {
	db, c := sparseWorld(t, 40, 800, 21)
	const minMatch = 0.05
	truthSet, _, err := match.MineBySweep(db, c, minMatch, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MineSweep(db, c, Config{
		MinMatch:   minMatch,
		SampleSize: 600,
		MaxLen:     3,
		MaxGap:     0,
		MemBudget:  1000,
		Rng:        rand.New(rand.NewSource(22)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sample-frequent patterns are accepted at confidence 1-δ; everything
	// else is probed exactly, so on this seeded workload the result matches
	// the exhaustive truth.
	setsEqual(t, res.Frequent, truthSet, "sweep vs exhaustive")
	if res.Scans < 1 {
		t.Error("no scans recorded")
	}
	if res.Phase2 == nil || res.Phase2.Frequent == nil || res.Phase2.Ambiguous == nil {
		t.Error("phase 2 regions not populated")
	}
}

func TestMineSweepAgreesWithMine(t *testing.T) {
	db, c := sparseWorld(t, 30, 600, 31)
	cfg := Config{
		MinMatch:   0.06,
		SampleSize: 500,
		MaxLen:     3,
		MaxGap:     0,
		MemBudget:  1000,
	}
	cfg.Rng = rand.New(rand.NewSource(32))
	viaSweep, err := MineSweep(db, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rng = rand.New(rand.NewSource(32))
	viaEngine, err := Mine(db, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	setsEqual(t, viaSweep.Frequent, viaEngine.Frequent, "sweep vs candidate engine")
}

func TestMineSweepRejectsUndersizedSample(t *testing.T) {
	db, c := sparseWorld(t, 30, 400, 41)
	_, err := MineSweep(db, c, Config{
		MinMatch:   0.001, // far below ε for any feasible sample here
		SampleSize: 20,
		MaxLen:     3,
		Rng:        rand.New(rand.NewSource(42)),
	})
	if err == nil {
		t.Fatal("undersized sample accepted: negatives would be unsound")
	}
}

func TestMineSweepScanAccounting(t *testing.T) {
	db, c := sparseWorld(t, 40, 600, 51)
	db.ResetScans()
	res, err := MineSweep(db, c, Config{
		MinMatch:   0.08,
		SampleSize: 500,
		MaxLen:     3,
		MemBudget:  5,
		Rng:        rand.New(rand.NewSource(52)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Scans() != res.Scans {
		t.Errorf("db counted %d scans, result reports %d", db.Scans(), res.Scans)
	}
}

func TestMineSweepFinalizerNone(t *testing.T) {
	db, c := sparseWorld(t, 40, 600, 61)
	db.ResetScans()
	res, err := MineSweep(db, c, Config{
		MinMatch:   0.08,
		SampleSize: 500,
		MaxLen:     3,
		Finalizer:  None,
		Rng:        rand.New(rand.NewSource(62)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phase3 != nil || db.Scans() != 1 {
		t.Errorf("None finalizer: phase3=%v scans=%d", res.Phase3, db.Scans())
	}
}

func TestMineSweepValidation(t *testing.T) {
	db, c := sparseWorld(t, 30, 100, 71)
	if _, err := MineSweep(db, c, Config{MinMatch: 0, MaxLen: 3, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("invalid config accepted")
	}
	empty := seqdb.NewMemDB(nil)
	if _, err := MineSweep(empty, c, Config{MinMatch: 0.1, MaxLen: 3, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("empty database accepted")
	}
}
