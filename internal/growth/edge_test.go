package growth_test

import (
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/growth"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// runBoth mines the same sample with both engines and asserts full result
// equivalence.
func runBoth(t *testing.T, c compat.Source, sample [][]pattern.Symbol, minMatch, delta float64, maxLen, maxGap int) (*miner.Result, *miner.Result) {
	t.Helper()
	sm := symbolMatches(t, c, sample)
	want := levelwise(t, c, sample, sm, minMatch, delta, maxLen, maxGap)
	got, err := growth.Mine(c, sample, growth.Config{
		SymbolMatch: sm,
		MinMatch:    minMatch,
		Delta:       delta,
		MaxLen:      maxLen,
		MaxGap:      maxGap,
		Workers:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, want, got)
	return want, got
}

// TestEdgeEmptySample: both engines refuse an empty sample the same way —
// the Chernoff classifier needs n >= 1.
func TestEdgeEmptySample(t *testing.T) {
	c := compat.Identity(2)
	if _, err := growth.Mine(c, nil, growth.Config{MinMatch: 0.5, Delta: 0.05, MaxLen: 3}); err == nil {
		t.Error("growth accepted an empty sample")
	}
	valuer, inc := miner.IncrementalSampleValuer(c, nil, miner.IncrementalConfig{})
	defer inc.Release()
	if _, err := miner.SampleChernoff(2, valuer, nil, 0.5, 0.05, 0, miner.Options{MaxLen: 3}); err == nil {
		t.Error("levelwise accepted an empty sample")
	}
}

// TestEdgeSingleSymbolAlphabet: m == 1 collapses the lattice to runs of one
// symbol; both engines must agree on every length.
func TestEdgeSingleSymbolAlphabet(t *testing.T) {
	c := compat.Identity(1)
	sample := [][]pattern.Symbol{
		{0, 0, 0, 0},
		{0, 0},
		{0, 0, 0, 0, 0, 0},
	}
	runBoth(t, c, sample, 0.6, 0.05, 4, 1)
}

// TestEdgeMinMatchBounds: the threshold extremes — 0 admits everything the
// spread allows, 1 rejects all but certainty — must classify identically.
func TestEdgeMinMatchBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const m = 3
	noisy, err := compat.UniformNoise(m, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sample := make([][]pattern.Symbol, 24)
	for i := range sample {
		seq := make([]pattern.Symbol, 4+rng.Intn(6))
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(m))
		}
		sample[i] = seq
	}
	for _, c := range []*compat.Matrix{noisy, compat.Identity(m)} {
		for _, minMatch := range []float64{0, 1} {
			want, _ := runBoth(t, c, sample, minMatch, 0.05, 4, 1)
			if minMatch == 0 && want.Frequent.Len() == 0 {
				t.Error("min_match 0 found nothing frequent")
			}
		}
	}
}

// TestEdgePatternLengthEqualsSequenceLength: with MaxLen equal to every
// sequence's length, the longest candidates have exactly one window each —
// the clipping path's boundary.
func TestEdgePatternLengthEqualsSequenceLength(t *testing.T) {
	const m, l = 2, 5
	noisy, err := compat.UniformNoise(m, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	sample := make([][]pattern.Symbol, 16)
	for i := range sample {
		seq := make([]pattern.Symbol, l)
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(m))
		}
		sample[i] = seq
	}
	for _, c := range []*compat.Matrix{noisy, compat.Identity(m)} {
		runBoth(t, c, sample, 0.3, 0.05, l, 1)
	}
}

// TestEdgeScanCountsIdentical runs the full pipeline under both engines and
// pins the exact scan accounting: Phase 1's single scan plus Phase 3's probe
// scans, with Phase 2 contributing none either way.
func TestEdgeScanCountsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const m = 4
	c, err := compat.UniformNoise(m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	db := make([][]pattern.Symbol, 30)
	for i := range db {
		seq := make([]pattern.Symbol, 6+rng.Intn(6))
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(m))
		}
		db[i] = seq
	}
	var scans [2]int
	for i, engine := range []core.Phase2Engine{core.Phase2Levelwise, core.Phase2Growth} {
		res, err := core.Mine(seqdb.NewMemDB(db), c, core.Config{
			MinMatch:     0.25,
			Delta:        0.05,
			SampleSize:   len(db),
			MaxLen:       4,
			MaxGap:       1,
			MemBudget:    5,
			Workers:      2,
			Phase2Engine: engine,
			Rng:          rand.New(rand.NewSource(7)),
		})
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if res.Phase2.Scans != 0 && engine == core.Phase2Growth {
			t.Errorf("growth Phase2.Scans = %d, want 0", res.Phase2.Scans)
		}
		scans[i] = res.Scans
		if want := 1 + res.Phase3.Scans; res.Scans != want {
			t.Errorf("%v: Scans = %d, want 1 + %d probe scans", engine, res.Scans, res.Phase3.Scans)
		}
	}
	if scans[0] != scans[1] {
		t.Errorf("scan counts differ: levelwise %d, growth %d", scans[0], scans[1])
	}
}
