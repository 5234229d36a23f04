package match

import (
	"math/rand"
	"testing"

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

func BenchmarkSoAObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := randomDense(b, 16, 0.3, rng)
	_, children := benchLevels(16)
	sample := randomSample(64, 40, 60, 16, rng)
	set, err := CompileSoA(c, children)
	if err != nil {
		b.Fatal(err)
	}
	sums := make([]float64, set.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Observe(sums, sample[i%len(sample)])
	}
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
