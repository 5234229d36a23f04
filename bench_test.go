// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5) at the small workload scale, plus micro-benchmarks for the
// implementation's design choices (DESIGN.md's ablation list). Run with
//
//	go test -bench=. -benchmem
//
// Figure benchmarks report their headline series through b.ReportMetric so
// the shapes are visible in benchmark output; cmd/lspexp prints the full
// tables.
package lsp

import (
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/match"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// ---- Figure and table reproductions ----

func BenchmarkFig7NoiseRobustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(experiments.Fig7Config{Scale: experiments.Small, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.SupportCompleteness, "support_comp@0.6")
		b.ReportMetric(last.MatchCompleteness, "match_comp@0.6")
	}
}

func BenchmarkFig7PatternLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(experiments.Fig7Config{Scale: experiments.Small, Seed: 1, Alphas: []float64{0.6}, LengthAlpha: 0.6})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Levels) == 0 {
			b.Fatal("no level breakdown")
		}
		deepest := res.Levels[len(res.Levels)-1]
		b.ReportMetric(deepest.SupportCompleteness, "support_comp@deepest_k")
		b.ReportMetric(deepest.MatchCompleteness, "match_comp@deepest_k")
	}
}

func BenchmarkTableBlosum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Blosum(experiments.BlosumConfig{Scale: experiments.Small, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MatchCompleteness, "match_comp")
		b.ReportMetric(res.SupportCompleteness, "support_comp")
	}
}

func BenchmarkFig8MatrixError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(experiments.Fig8Config{Scale: experiments.Small, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.Completeness, "match_comp@14%err")
	}
}

func BenchmarkFig9CandidatesPerLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(experiments.Fig9Config{Scale: experiments.Small, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		deepest := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(deepest.MatchCandidates), "match_candidates@deepest")
		b.ReportMetric(float64(deepest.SupportCandidates), "support_candidates@deepest")
	}
}

func BenchmarkFig10SampleSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(experiments.Fig10Config{Scale: experiments.Small, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(first.Ambiguous[0]), "ambiguous@min_n")
		b.ReportMetric(float64(last.Ambiguous[0]), "ambiguous@max_n")
	}
}

func BenchmarkFig11SpreadR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(experiments.Fig11Config{Scale: experiments.Small, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratios[0].Ratio, "ambiguous_ratio_restricted_over_R1")
	}
}

func BenchmarkFig12Confidence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(experiments.Fig12Config{Scale: experiments.Small, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].Ambiguous), "ambiguous@conf0.9")
		b.ReportMetric(float64(res.Rows[len(res.Rows)-1].Ambiguous), "ambiguous@conf0.9999")
	}
}

func BenchmarkFig13MissedPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(experiments.Fig13Config{Scale: experiments.Small, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		fr := res.Histogram.Fractions()
		b.ReportMetric(fr[0], "missed_within_5pct")
		b.ReportMetric(float64(res.Missed), "missed_total")
	}
}

func BenchmarkFig14Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(experiments.Fig14Config{Scale: experiments.Small, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(last.CollapseScans), "collapse_scans@low_thresh")
		b.ReportMetric(float64(last.LevelWiseScans), "levelwise_scans@low_thresh")
		b.ReportMetric(float64(last.MaxMinerScans), "maxminer_scans@low_thresh")
	}
}

func BenchmarkFig15Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(experiments.Fig15Config{Scale: experiments.Small, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rows[0].Scans), "scans@min_m")
		b.ReportMetric(float64(res.Rows[len(res.Rows)-1].Scans), "scans@max_m")
	}
}

// ---- Micro-benchmarks (design-choice ablations) ----

func benchWorkload(b *testing.B) (*seqdb.MemDB, *compat.Matrix) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	db, _, err := datagen.Protein(datagen.ProteinConfig{
		N: 200, M: 20, MinLen: 50, MaxLen: 100,
		NumMotifs: 2, MotifLen: 6, PlantProb: 0.4,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c, err := compat.UniformNoise(20, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	return db, c
}

func BenchmarkMatchSequence(b *testing.B) {
	db, c := benchWorkload(b)
	p := pattern.MustNew(0, 1, pattern.Eternal, 3, 4)
	seq := db.Seq(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		match.Sequence(c, p, seq)
	}
}

func BenchmarkCompiledMatch(b *testing.B) {
	db, c := benchWorkload(b)
	p := pattern.MustNew(0, 1, pattern.Eternal, 3, 4)
	cp, err := match.Compile(c, p)
	if err != nil {
		b.Fatal(err)
	}
	seq := db.Seq(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Match(seq)
	}
}

func BenchmarkSymbolScanOptimized(b *testing.B) {
	db, c := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.Symbols(db, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymbolScanNaive(b *testing.B) {
	db, c := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.SymbolsNaive(db, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseMatrixLookup(b *testing.B) {
	_, dense := benchWorkload(b)
	sparse := dense.Sparse()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.C(pattern.Symbol(i%20), pattern.Symbol((i*7)%20))
	}
}

func BenchmarkDenseMatrixLookup(b *testing.B) {
	_, dense := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.C(pattern.Symbol(i%20), pattern.Symbol((i*7)%20))
	}
}

func BenchmarkHalfwayGeneration(b *testing.B) {
	lower := pattern.MustNew(0)
	upper := pattern.MustNew(0, 1, 2, 3, 4, 5, 6, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pattern.Halfway(lower, upper, 0)
	}
}

func BenchmarkDiskScan(b *testing.B) {
	db, _ := benchWorkload(b)
	path := b.TempDir() + "/bench.lsq"
	if err := seqdb.WriteFile(path, db); err != nil {
		b.Fatal(err)
	}
	disk, err := seqdb.OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		err := disk.Scan(func(id int, seq []pattern.Symbol) error {
			total += len(seq)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLevelSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	db, _, err := datagen.Protein(datagen.ProteinConfig{
		N: 200, M: 20, MinLen: 20, MaxLen: 30,
		NumMotifs: 2, MotifLen: 4, PlantProb: 0.4,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	// Sparse concentrated matrix for the sweep.
	sub := make([][]float64, 20)
	for i := range sub {
		sub[i] = make([]float64, 20)
		sub[i][i] = 0.8
		sub[i][i^1] += 0.2
	}
	c, err := compat.FromChannel(sub, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := match.LevelSweep(db, c, 3, 4, 0, 0.0001); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelProbeScan(b *testing.B) {
	db, c := benchWorkload(b)
	ps := benchPatterns(200)
	valuer := miner.ParallelMatchDBValuer(db, c, -1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := valuer(ps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequentialProbeScan(b *testing.B) {
	db, c := benchWorkload(b)
	ps := benchPatterns(200)
	valuer := miner.MatchDBValuer(db, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := valuer(ps); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPatterns builds n random 3-patterns over 20 symbols.
func benchPatterns(n int) []pattern.Pattern {
	rng := rand.New(rand.NewSource(9))
	ps := make([]pattern.Pattern, n)
	for i := range ps {
		ps[i] = pattern.Pattern{
			pattern.Symbol(rng.Intn(20)),
			pattern.Symbol(rng.Intn(20)),
			pattern.Symbol(rng.Intn(20)),
		}
	}
	return ps
}

func BenchmarkGzipScan(b *testing.B) {
	db, _ := benchWorkload(b)
	path := b.TempDir() + "/bench.lsqz"
	if err := seqdb.WriteGzipFile(path, db); err != nil {
		b.Fatal(err)
	}
	disk, err := seqdb.OpenGzipFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		err := disk.Scan(func(id int, seq []pattern.Symbol) error {
			total += len(seq)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImplicitCollapse compares the explicit and paper-verbatim
// implicit border collapsing on a matched space (MaxGap = MaxLen-2, where
// the two lattices coincide).
func BenchmarkImplicitCollapse(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	db, _, err := datagen.Protein(datagen.ProteinConfig{
		N: 150, M: 6, MinLen: 10, MaxLen: 14,
		Motifs:    []pattern.Pattern{pattern.MustNew(0, 1, 2)},
		PlantProb: 0.6,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c, err := compat.UniformNoise(6, 0.15)
	if err != nil {
		b.Fatal(err)
	}
	run := func(fin core.Finalizer) *core.Result {
		res, err := core.Mine(db, c, core.Config{
			MinMatch: 0.12, SampleSize: 25, MaxLen: 4, MaxGap: 2,
			MemBudget: 20, Finalizer: fin,
			Rng: rand.New(rand.NewSource(34)),
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		explicit := run(core.BorderCollapsing)
		implicit := run(core.BorderCollapsingImplicit)
		b.ReportMetric(float64(explicit.Scans), "explicit_scans")
		b.ReportMetric(float64(implicit.Scans), "implicit_scans")
	}
}
