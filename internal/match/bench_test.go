package match

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/pattern"
)

// benchLevels builds a synthetic lattice: parents are every symbol pair,
// children right-extend each parent with every symbol at gap 0 and 1.
func benchLevels(m int) (parents, children []pattern.Pattern) {
	for a := 0; a < m; a++ {
		for b := 0; b < m; b++ {
			parents = append(parents, pattern.MustNew(pattern.Symbol(a), pattern.Symbol(b)))
		}
	}
	for _, p := range parents[:min(len(parents), 32)] {
		for d := 0; d < m; d++ {
			children = append(children, pattern.Extend(p, 0, pattern.Symbol(d)))
			children = append(children, pattern.Extend(p, 1, pattern.Symbol(d)))
		}
	}
	return parents, children
}

func BenchmarkCompiledMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := randomDense(b, 16, 0.3, rng)
	seq := randomSample(1, 200, 200, 16, rng)[0]
	p := pattern.MustNew(1, pattern.Eternal, 5, 9, pattern.Eternal, 3)
	cp, err := Compile(c, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp.Match(seq)
	}
}

// BenchmarkSoAObserve scores a whole sample against a compiled probe batch
// per op, through the batch entry point the probe passes use, and reports
// ns per sequence. The regimes the kernel must hold in:
//
//   - uniform: 5% uniform noise over 20 symbols, 256 sequences of length
//     30–50 with two planted 8-symbol motifs, and a batch of 32 gapped
//     5–8-symbol patterns cut from the motifs (a third of them mutated) —
//     the shape of the benchmark workloads' probe batches;
//   - banded: the same sequences and batch under lspbench's banded sparse
//     matrix, where most first factors are zero;
//   - identity: the same under the identity matrix (classic support);
//   - dense30: a 16-symbol random matrix with 30% zeros, 64 sequences and
//     1,024 2–3-symbol patterns.
//
// No benchmark workload has a zero factor, so the last three rows are the
// only timing of matrices with zeros.
func BenchmarkSoAObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	seqs, motifs := plantedSample(b, 256, 30, 50, 20, rng)
	batch := gappedBatch(motifs, 32, 20, rng)
	_, children := benchLevels(16)
	cases := []struct {
		name   string
		c      compat.Source
		batch  []pattern.Pattern
		sample [][]pattern.Symbol
	}{
		{"uniform", uniformNoise(b, 20, 0.05), batch, seqs},
		{"banded", randomSparse(b, 20), batch, seqs},
		{"identity", compat.Identity(20), batch, seqs},
		{"dense30", randomDense(b, 16, 0.3, rng), children, randomSample(64, 40, 60, 16, rng)},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			set, err := CompileSoA(tc.c, tc.batch)
			if err != nil {
				b.Fatal(err)
			}
			sums := make([]float64, set.Len())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				set.Accumulate(sums, tc.sample)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tc.sample)), "ns/seq")
		})
	}
}

// plantedSample draws n sequences of length minLen–maxLen over m symbols
// carrying two planted 8-symbol motifs (each with probability 0.5) under 5%
// uniform noise.
func plantedSample(b testing.TB, n, minLen, maxLen, m int, rng *rand.Rand) ([][]pattern.Symbol, []pattern.Pattern) {
	std, motifs, err := datagen.Protein(datagen.ProteinConfig{
		N: n, M: m, MinLen: minLen, MaxLen: maxLen, NumMotifs: 2, MotifLen: 8, PlantProb: 0.5,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	noisy, err := datagen.ApplyUniformNoise(std, m, 0.05, rng)
	if err != nil {
		b.Fatal(err)
	}
	seqs := make([][]pattern.Symbol, noisy.Len())
	for i := range seqs {
		seqs[i] = noisy.Seq(i)
	}
	return seqs, motifs
}

// gappedBatch cuts n patterns of total length 5–8 from the motifs: each is a
// motif window whose inner positions turn eternal with probability 1/4, and
// a third of them have one symbol replaced by a random one.
func gappedBatch(motifs []pattern.Pattern, n, m int, rng *rand.Rand) []pattern.Pattern {
	ps := make([]pattern.Pattern, 0, n)
	for len(ps) < n {
		mo := motifs[rng.Intn(len(motifs))]
		l := 5 + rng.Intn(min(4, len(mo)-4))
		at := rng.Intn(len(mo) - l + 1)
		p := mo[at : at+l].Clone()
		for i := 1; i < l-1; i++ {
			if rng.Intn(4) == 0 && !p[i-1].IsEternal() {
				p[i] = pattern.Eternal
			}
		}
		if rng.Intn(3) == 0 {
			i := rng.Intn(l)
			for p[i].IsEternal() {
				i = rng.Intn(l)
			}
			p[i] = pattern.Symbol(rng.Intn(m))
		}
		ps = append(ps, p)
	}
	return ps
}

// BenchmarkProfile times one class-profile walk, the growth engine's
// per-(node, gap) pass, on the long-low workload's shape: 300 sequences of
// 150–220 symbols over 20 symbols with two planted motifs, profiled for the
// children of a 3-symbol motif prefix. ramp is 5% uniform noise (every
// window survives); banded is lspbench's banded sparse matrix, where a
// projection keeps only the windows its rows allow.
func BenchmarkProfile(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	seqs, motifs := plantedSample(b, 300, 150, 220, 20, rng)
	p := motifs[0][:3]
	for _, tc := range []struct {
		name string
		c    compat.Source
	}{
		{"ramp", uniformNoise(b, 20, 0.05)},
		{"banded", randomSparse(b, 20)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			pr, err := NewProjector(tc.c, seqs, 0).BuildInto(nil, p)
			if err != nil {
				b.Fatal(err)
			}
			var sc ProfileScratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr.Profile(len(p)+1, &sc)
			}
		})
	}
}

// BenchmarkProjectionValueKids times the level-wise kernel's sibling walk:
// 1,000 sequences of 24–50 symbols over 20 symbols under 5% uniform noise,
// valuing groups of 2, 5 and 20 children of a 2-symbol pattern. Groups of
// three or more may take the class pass.
func BenchmarkProjectionValueKids(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	seqs := randomSample(1000, 24, 50, 20, rng)
	pr, err := NewProjector(uniformNoise(b, 20, 0.05), seqs, 0).BuildInto(nil, pattern.MustNew(3, 7))
	if err != nil {
		b.Fatal(err)
	}
	ds := make([]pattern.Symbol, 20)
	for i := range ds {
		ds[i] = pattern.Symbol(i)
	}
	for _, kids := range []int{2, 5, 20} {
		b.Run(fmt.Sprintf("kids=%d", kids), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr.ValueKids(3, ds[:kids])
			}
		})
	}
}

func uniformNoise(b testing.TB, m int, alpha float64) compat.Source {
	c, err := compat.UniformNoise(m, alpha)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkIncrementalExtend measures scoring one child level through the
// prefix-extension cache; the untimed section rebuilds the parent cache.
func BenchmarkIncrementalExtend(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := randomDense(b, 16, 0.3, rng)
	sample := randomSample(64, 40, 60, 16, rng)
	parents, children := benchLevels(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc := NewIncremental(c, sample, IncrementalOptions{Workers: 1})
		if _, _, err := inc.ValueLevel(parents); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := inc.ValueLevel(children); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalExtendScratch is the same child level scored without a
// parent cache (budget 1 byte forces the compiled fallback) — the baseline
// BenchmarkIncrementalExtend should beat.
func BenchmarkIncrementalExtendScratch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := randomDense(b, 16, 0.3, rng)
	sample := randomSample(64, 40, 60, 16, rng)
	parents, children := benchLevels(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inc := NewIncremental(c, sample, IncrementalOptions{Workers: 1, Budget: 1})
		if _, _, err := inc.ValueLevel(parents); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := inc.ValueLevel(children); err != nil {
			b.Fatal(err)
		}
	}
}
