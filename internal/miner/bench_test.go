package miner

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// BenchmarkSampleChernoff runs the full Phase 2 lattice over one sample with
// the naive per-pattern valuer and with the incremental prefix-extension
// kernel at several worker counts.
func BenchmarkSampleChernoff(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	motif := []pattern.Symbol{2, 5, 1, 4, 7}
	sample := incTestSample(200, 40, 10, motif, rng)
	c, err := compat.UniformNoise(10, 0.12)
	if err != nil {
		b.Fatal(err)
	}
	sm := symbolMatches(c, sample)
	opts := Options{MaxLen: 6, MaxGap: 1}

	run := func(b *testing.B, valuer func() Valuer) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := SampleChernoff(c.Size(), valuer(), sm, 0.2, 1e-2, len(sample), opts); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("naive", func(b *testing.B) {
		run(b, func() Valuer { return MatchSampleValuer(c, sample) })
	})
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(map[int]string{1: "incremental-1w", 4: "incremental-4w"}[workers], func(b *testing.B) {
			run(b, func() Valuer {
				v, _ := IncrementalSampleValuer(c, sample, IncrementalConfig{Workers: workers})
				return v
			})
		})
	}
}

// BenchmarkProbePass times one Phase 3 probe pass of 37 patterns over a
// disk-resident store of 5,000 sequences of length 40, inline and on two
// workers. A warm-up pass runs first, so allocs/op is what every later pass
// of a job allocates.
func BenchmarkProbePass(b *testing.B) {
	mem, c, ps := randomWorkload(b, 23, 5000, 40)
	path := filepath.Join(b.TempDir(), "db.lsq")
	if err := seqdb.WriteFile(path, mem); err != nil {
		b.Fatal(err)
	}
	disk, err := seqdb.OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			v := ProbeValuer(nil, disk, c, workers, nil, nil)
			if _, err := v(ps); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v(ps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
