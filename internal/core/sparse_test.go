package core

import (
	"math"
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

// TestMineSparseMatchesExhaustive: Mine over a matrix built sparse
// (datagen.SparseNoise) finds the exact frequent set.
func TestMineSparseMatchesExhaustive(t *testing.T) {
	db, c := sparseWorld(t, 40, 800, 21)
	const minMatch = 0.05
	truthSet, _, err := match.MineBySweep(db, c, minMatch, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(db, c, Config{
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
	setsEqual(t, res.Frequent, truthSet, "sparse Mine vs exhaustive")
	if res.Phase2 == nil || res.Phase2.Frequent == nil || res.Phase2.Ambiguous == nil {
		t.Error("phase 2 regions not populated")
	}
}

// TestMineSparseEqualsDense: a matrix and its sparse form are one matrix to
// the pipeline. Mining either gives bit-identical Phase 2 values and labels,
// the same frequent set and border, and the same scans, sequentially and on
// several workers.
func TestMineSparseEqualsDense(t *testing.T) {
	db, c := noisyProteinDB(t, 15, 80, 0.15)
	for _, workers := range []int{0, 3} {
		run := func(src compat.Source) *Result {
			res, err := Mine(db, src, Config{
				MinMatch: 0.1, SampleSize: 20, MaxLen: 4, MemBudget: 30,
				Workers: workers, Rng: rand.New(rand.NewSource(16)),
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		dense, sparse := run(c), run(c.Sparse())
		if len(sparse.Phase2.Values) != len(dense.Phase2.Values) {
			t.Fatalf("workers=%d: %d Phase 2 values over the sparse matrix, %d over the dense", workers, len(sparse.Phase2.Values), len(dense.Phase2.Values))
		}
		for key, want := range dense.Phase2.Values {
			got, ok := sparse.Phase2.Values[key]
			if !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("workers=%d: %s valued %v over the sparse matrix, %v over the dense", workers, key, got, want)
			}
			if sparse.Phase2.Labels[key] != dense.Phase2.Labels[key] {
				t.Errorf("workers=%d: %s labelled %v over the sparse matrix, %v over the dense", workers, key, sparse.Phase2.Labels[key], dense.Phase2.Labels[key])
			}
		}
		setsEqual(t, sparse.Frequent, dense.Frequent, "Frequent")
		setsEqual(t, sparse.Border, dense.Border, "Border")
		if sparse.Scans != dense.Scans {
			t.Errorf("workers=%d: %d scans over the sparse matrix, %d over the dense", workers, sparse.Scans, dense.Scans)
		}
		if dense.Phase3 == nil {
			t.Errorf("workers=%d: no Phase 3 ran; the world leaves nothing to compare past Phase 2", workers)
		}
	}
}
