package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// engineCase is one input of the engine-choice tests: a world, the mining
// configuration, and the engine an automatic run must report.
type engineCase struct {
	name                 string
	n, m, minLen, maxLen int
	alpha                float64
	// banded mines with the banded sparse matrix instead of the uniform one.
	banded                 bool
	cfg                    Config
	wantEngine             string
	wantTruncated          bool
	wantGrowthCapFallbacks int64
}

// world is the case's planted-motif database, n sequences over m symbols
// with lengths in [minLen, maxLen] under uniform noise alpha (the length
// range decides which side of PickPhase2Engine's threshold it falls on),
// and the matrix it is mined with.
func (tc engineCase) world(t *testing.T) (*seqdb.MemDB, compat.Source) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	std, _, err := datagen.Protein(datagen.ProteinConfig{
		N: tc.n, M: tc.m, MinLen: tc.minLen, MaxLen: tc.maxLen,
		Motifs:    []pattern.Pattern{pattern.MustNew(0, 1, 2)},
		PlantProb: 0.6,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	db, err := datagen.ApplyUniformNoise(std, tc.m, tc.alpha, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tc.banded {
		return db, bandedMatrix(t, tc.m)
	}
	c, err := compat.UniformNoise(tc.m, tc.alpha)
	if err != nil {
		t.Fatal(err)
	}
	return db, c
}

// bandedMatrix explains each observed symbol by itself (0.9) and its ring
// neighbors (0.06 / 0.04): all but three cells of every column are zero, so
// few windows survive a pattern's first positions.
func bandedMatrix(t *testing.T, m int) compat.Source {
	t.Helper()
	cells := make([]compat.Cell, 0, 3*m)
	for o := 0; o < m; o++ {
		cells = append(cells,
			compat.Cell{True: pattern.Symbol(o), Observed: pattern.Symbol(o), P: 0.9},
			compat.Cell{True: pattern.Symbol((o + 1) % m), Observed: pattern.Symbol(o), P: 0.06},
			compat.Cell{True: pattern.Symbol((o + m - 1) % m), Observed: pattern.Symbol(o), P: 0.04},
		)
	}
	c, err := compat.NewSparse(m, cells)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func engineCases() []engineCase {
	return []engineCase{
		{
			// Mean length 12 < 3 × 6: level-wise.
			name: "short", n: 80, m: 6, minLen: 10, maxLen: 14, alpha: 0.15,
			cfg:        Config{MinMatch: 0.1, Delta: 0.05, SampleSize: 60, MaxLen: 4, MaxGap: 1, MemBudget: 40},
			wantEngine: "levelwise",
		},
		{
			// Mean length 24 >= 3 × 6: growth.
			name: "long", n: 80, m: 6, minLen: 20, maxLen: 28, alpha: 0.15,
			cfg:        Config{MinMatch: 0.25, Delta: 0.05, SampleSize: 60, MaxLen: 5, MaxGap: 1, MemBudget: 40},
			wantEngine: "growth",
		},
		{
			// Dense noise, a low threshold and a small cap: the rule picks
			// growth, a level exceeds the cap, and the level-wise engine's
			// truncation defines the result.
			name: "capped", n: 60, m: 4, minLen: 14, maxLen: 20, alpha: 0.3,
			cfg: Config{MinMatch: 0.05, SampleSize: 30, MaxLen: 5, MaxGap: 1, MemBudget: 30,
				MaxCandidatesPerLevel: 40},
			wantEngine: "levelwise", wantTruncated: true, wantGrowthCapFallbacks: 1,
		},
		{
			// The banded sparse matrix at mean length 24 >= 3 × 6: growth,
			// over projections that keep only the windows the band allows.
			name: "banded", n: 80, m: 6, minLen: 20, maxLen: 28, alpha: 0.1, banded: true,
			cfg:        Config{MinMatch: 0.2, Delta: 0.05, SampleSize: 60, MaxLen: 5, MaxGap: 1, MemBudget: 40},
			wantEngine: "growth",
		},
		{
			// A wide alphabet, mean length 35 < 3 × 50: level-wise, with
			// levels of thousands of candidates.
			name: "wide", n: 80, m: 50, minLen: 30, maxLen: 40, alpha: 0.1,
			cfg:        Config{MinMatch: 0.15, Delta: 0.05, SampleSize: 60, MaxLen: 4, MaxGap: 1, MemBudget: 40},
			wantEngine: "levelwise",
		},
	}
}

// run mines the case's world with cfg's engine and worker count.
func (tc engineCase) run(t *testing.T, e Phase2Engine, workers int, m *telemetry.Metrics) *Result {
	t.Helper()
	db, c := tc.world(t)
	cfg := tc.cfg
	cfg.Phase2Engine, cfg.Workers, cfg.Metrics = e, workers, m
	cfg.Rng = rand.New(rand.NewSource(5))
	res, err := Mine(db, c, cfg)
	if err != nil {
		t.Fatalf("%s/%v/workers=%d: %v", tc.name, e, workers, err)
	}
	return res
}

// assertSameMine checks that got mined exactly what want did: labels, the
// frequent set and border, the per-level candidate and alive counts,
// truncation, scans, and every frequent pattern's reported value, source
// and border flag.
func assertSameMine(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Phase2.Labels, got.Phase2.Labels) {
		t.Fatalf("%s: Phase 2 labels differ", label)
	}
	setsEqual(t, got.Frequent, want.Frequent, label+" Frequent")
	setsEqual(t, got.Border, want.Border, label+" Border")
	if !reflect.DeepEqual(want.Phase2.CandidatesPerLevel, got.Phase2.CandidatesPerLevel) {
		t.Errorf("%s: CandidatesPerLevel %v, want %v", label, got.Phase2.CandidatesPerLevel, want.Phase2.CandidatesPerLevel)
	}
	if !reflect.DeepEqual(want.Phase2.AlivePerLevel, got.Phase2.AlivePerLevel) {
		t.Errorf("%s: AlivePerLevel %v, want %v", label, got.Phase2.AlivePerLevel, want.Phase2.AlivePerLevel)
	}
	if want.Phase2.Truncated != got.Phase2.Truncated {
		t.Errorf("%s: Truncated %v, want %v", label, got.Phase2.Truncated, want.Phase2.Truncated)
	}
	if want.Scans != got.Scans {
		t.Errorf("%s: Scans %d, want %d", label, got.Scans, want.Scans)
	}
	wantRep, err := NewReport(want, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotRep, err := NewReport(got, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRep.Frequent, gotRep.Frequent) {
		t.Errorf("%s: frequent pattern values differ:\ngot:  %+v\nwant: %+v", label, gotRep.Frequent, wantRep.Frequent)
	}
}

// TestAutoEngineEqualsLevelwise: on both sides of the rule's threshold, on
// an input whose levels exceed the candidate cap, over the banded sparse
// matrix and over a 50-symbol alphabet, an automatic run — and a run forced
// onto growth — mines exactly what a forced level-wise run mines, at every
// worker count. The automatic run reports the engine the rule picked, or
// levelwise when growth handed a capped level back.
func TestAutoEngineEqualsLevelwise(t *testing.T) {
	for _, tc := range engineCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.run(t, Phase2Levelwise, 1, nil)
			if want.Phase2Engine != "levelwise" {
				t.Fatalf("forced level-wise run reports %q", want.Phase2Engine)
			}
			if want.Phase2.Truncated != tc.wantTruncated {
				t.Fatalf("level-wise Truncated = %v, want %v (candidates per level %v)",
					want.Phase2.Truncated, tc.wantTruncated, want.Phase2.CandidatesPerLevel)
			}
			if want.Frequent.Len() < 4 {
				t.Fatalf("world too easy: %d frequent patterns", want.Frequent.Len())
			}
			for _, workers := range []int{1, 2, 4} {
				m := &telemetry.Metrics{}
				auto := tc.run(t, Phase2Auto, workers, m)
				label := fmt.Sprintf("auto/workers=%d", workers)
				assertSameMine(t, label, want, auto)
				if auto.Phase2Engine != tc.wantEngine {
					t.Errorf("%s: Phase2Engine %q, want %q", label, auto.Phase2Engine, tc.wantEngine)
				}
				snap := m.Snapshot()
				if snap.GrowthCapFallbacks != tc.wantGrowthCapFallbacks {
					t.Errorf("%s: growth_cap_fallbacks %d, want %d", label, snap.GrowthCapFallbacks, tc.wantGrowthCapFallbacks)
				}
				if got := snap.Candidates; got != int64(sum(want.Phase2.CandidatesPerLevel)) {
					t.Errorf("%s: telemetry counts %d candidates, want %d (a handed-back run counted once)",
						label, got, sum(want.Phase2.CandidatesPerLevel))
				}
				growth := tc.run(t, Phase2Growth, workers, nil)
				assertSameMine(t, fmt.Sprintf("growth/workers=%d", workers), want, growth)
				if wantGrowth := map[bool]string{false: "growth", true: "levelwise"}[tc.wantTruncated]; growth.Phase2Engine != wantGrowth {
					t.Errorf("forced growth/workers=%d: Phase2Engine %q, want %q", workers, growth.Phase2Engine, wantGrowth)
				}
			}
		})
	}
}

func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// TestPickPhase2Engine pins the rule's threshold: growth exactly when the
// mean sequence length reaches GrowthLengthRatio × the alphabet size.
func TestPickPhase2Engine(t *testing.T) {
	seqs := func(lens ...int) [][]pattern.Symbol {
		out := make([][]pattern.Symbol, len(lens))
		for i, l := range lens {
			out[i] = make([]pattern.Symbol, l)
		}
		return out
	}
	for _, tc := range []struct {
		sample [][]pattern.Symbol
		m      int
		want   Phase2Engine
	}{
		{seqs(60, 60), 20, Phase2Growth},
		{seqs(59, 61), 20, Phase2Growth},
		{seqs(59, 60), 20, Phase2Levelwise},
		{seqs(40), 20, Phase2Levelwise},
		{seqs(185), 20, Phase2Growth},
		{seqs(11, 7), 3, Phase2Growth},
		{nil, 3, Phase2Levelwise},
	} {
		if got := PickPhase2Engine(tc.sample, tc.m); got != tc.want {
			t.Errorf("sample of %d sequences over %d symbols: %v, want %v", len(tc.sample), tc.m, got, tc.want)
		}
	}
}

// TestResumeAutoEngineByteIdentical kills an automatic run after every
// checkpoint write — on an input where growth runs, and on one where growth
// hands a capped level back — and requires each resumed run's report to be
// byte-identical to the uninterrupted run's, engine name included.
func TestResumeAutoEngineByteIdentical(t *testing.T) {
	for _, tc := range engineCases()[1:3] {
		t.Run(tc.name, func(t *testing.T) {
			mine := func(ctx context.Context, path string, afterWrite func(int)) (*Result, error) {
				db, c := tc.world(t)
				cfg := tc.cfg
				cfg.Workers = 2
				cfg.Rng = rand.New(rand.NewSource(5))
				cfg.Checkpoint = &CheckpointPolicy{Path: path, Seed: 5, AfterWrite: afterWrite}
				return MineContext(ctx, db, c, cfg)
			}
			writes := 0
			want, err := mine(context.Background(), filepath.Join(t.TempDir(), "base.lckp"), func(int) { writes++ })
			if err != nil {
				t.Fatal(err)
			}
			if want.Phase2Engine != tc.wantEngine {
				t.Fatalf("Phase2Engine %q, want %q", want.Phase2Engine, tc.wantEngine)
			}
			wantDoc := timelessReport(t, want, tc.cfg.MinMatch, tc.n, tc.m)
			for k := 1; k <= writes; k++ {
				path := filepath.Join(t.TempDir(), "run.lckp")
				ctx, cancel := context.WithCancel(context.Background())
				n := 0
				_, _ = mine(ctx, path, func(int) {
					if n++; n == k {
						cancel()
					}
				})
				cancel()
				db, c := tc.world(t)
				cfg := tc.cfg
				cfg.Workers = 1
				got, err := Resume(context.Background(), path, db, c, cfg)
				if err != nil {
					t.Fatalf("kill %d: Resume: %v", k, err)
				}
				if got.ResumedFrom < 1 {
					t.Fatalf("kill %d: ResumedFrom = %d", k, got.ResumedFrom)
				}
				// ResumedFrom and ScansSkipped describe the resume itself.
				from := got.ResumedFrom
				got.ResumedFrom, got.ScansSkipped = 0, 0
				gotDoc := timelessReport(t, got, tc.cfg.MinMatch, tc.n, tc.m)
				if !bytes.Equal(gotDoc, wantDoc) {
					t.Errorf("kill %d (resumed from phase %d): report differs\ngot:  %s\nwant: %s", k, from, gotDoc, wantDoc)
				}
			}
		})
	}
}

// TestResumeLegacyGrowthSnapshot: a snapshot written while growth was a
// user-selected pipeline (engine name "growth", part of its config hash)
// still resumes, through the candidates pipeline, to the uninterrupted
// run's report.
func TestResumeLegacyGrowthSnapshot(t *testing.T) {
	tc := engineCases()[1]
	path := filepath.Join(t.TempDir(), "legacy.lckp")
	db, c := tc.world(t)
	cfg := tc.cfg
	cfg.Rng = rand.New(rand.NewSource(5))
	cfg.Checkpoint = &CheckpointPolicy{Path: path, Seed: 5}
	want, err := Mine(db, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := tc.cfg
	legacy.setDefaults()
	snap.Engine, snap.ConfigHash = engineGrowth, configHash(&legacy, engineGrowth)
	if _, err := checkpoint.Save(path, snap); err != nil {
		t.Fatal(err)
	}
	db2, c2 := tc.world(t)
	got, err := Resume(context.Background(), path, db2, c2, tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	got.ResumedFrom, got.ScansSkipped = 0, 0
	if g, w := timelessReport(t, got, tc.cfg.MinMatch, tc.n, tc.m), timelessReport(t, want, tc.cfg.MinMatch, tc.n, tc.m); !bytes.Equal(g, w) {
		t.Errorf("resumed legacy snapshot: report differs\ngot:  %s\nwant: %s", g, w)
	}
}
