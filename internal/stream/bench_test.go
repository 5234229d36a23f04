package stream

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/datagen"
	"repro/internal/pattern"
)

// BenchmarkAdvance times one round of the ingest-follow shape: a
// 1,000-member reservoir over a log that starts at 20,000 sequences and
// grows by 1,000 before each Advance. Every round replaces reservoir
// members.
func BenchmarkAdvance(b *testing.B) { benchAdvance(b, 1000, 1000) }

// BenchmarkAdvanceWholeWindow times one round over a reservoir that holds
// the whole log: 2,000 sequences growing by 100 before each Advance, so no
// round replaces a member and every one only appends to the sample.
func BenchmarkAdvanceWholeWindow(b *testing.B) { benchAdvance(b, 100, 1<<20) }

// benchAdvance appends 20 rounds of round sequences, advances once, and
// then times one Advance per further round, with a reservoir of sampleSize.
// Sequences are 24–40 symbols over 20, carry three planted length-5 motifs
// and 5% uniform noise; the stream mines at min_match 0.2 and max_len 6 on
// GOMAXPROCS workers. Appending is not timed.
func benchAdvance(b *testing.B, round, sampleSize int) {
	const m = 20
	motifs := datagen.RandomMotifs(3, 5, m, rand.New(rand.NewSource(303)))
	chunk := func(seed int64) [][]pattern.Symbol {
		rng := rand.New(rand.NewSource(seed))
		std, _, err := datagen.Protein(datagen.ProteinConfig{
			N: round, M: m, MinLen: 24, MaxLen: 40, Motifs: motifs, PlantProb: 0.4,
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
		return seqs
	}
	c, err := compat.UniformNoise(m, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	log := createLog(b)
	add := func(seed int64) {
		for _, seq := range chunk(seed) {
			if _, err := log.Append(seq); err != nil {
				b.Fatal(err)
			}
		}
	}
	for j := int64(0); j < 20; j++ {
		add(j)
	}
	s, err := New(log, Config{
		C: c, MinMatch: 0.2, SampleSize: sampleSize, MaxLen: 6, MaxCandidatesPerLevel: 50000,
		Workers: -1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Advance(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		add(int64(20 + i))
		b.StartTimer()
		if _, err := s.Advance(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
