package miner

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

func incTestMatrix(t *testing.T, m int, alpha float64) compat.Source {
	t.Helper()
	c, err := compat.UniformNoise(m, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func incTestSparse(t *testing.T, m int) compat.Source {
	t.Helper()
	var cells []compat.Cell
	for o := 0; o < m; o++ {
		cells = append(cells,
			compat.Cell{True: pattern.Symbol(o), Observed: pattern.Symbol(o), P: 0.88},
			compat.Cell{True: pattern.Symbol((o + 1) % m), Observed: pattern.Symbol(o), P: 0.12},
		)
	}
	c, err := compat.NewSparse(m, cells)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// incTestSample plants a motif so several lattice levels stay alive.
func incTestSample(n, length, m int, motif []pattern.Symbol, rng *rand.Rand) [][]pattern.Symbol {
	sample := make([][]pattern.Symbol, n)
	for i := range sample {
		seq := make([]pattern.Symbol, length)
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(m))
		}
		if rng.Float64() < 0.6 {
			at := rng.Intn(length - len(motif) + 1)
			copy(seq[at:], motif)
		}
		sample[i] = seq
	}
	return sample
}

func symbolMatches(c compat.Source, sample [][]pattern.Symbol) []float64 {
	out := make([]float64, c.Size())
	for d := range out {
		p := pattern.Pattern{pattern.Symbol(d)}
		sum := 0.0
		for _, seq := range sample {
			best := 0.0
			for _, obs := range seq {
				if v := c.C(p[0], obs); v > best {
					best = v
				}
			}
			sum += best
		}
		out[d] = sum / float64(len(sample))
	}
	return out
}

// runBoth mines the same sample with the naive and the incremental valuer
// and requires identical classifications and values within 1e-12.
func runBoth(t *testing.T, c compat.Source, sample [][]pattern.Symbol, cfg IncrementalConfig, minMatch float64, opts Options) (*Result, *Result) {
	t.Helper()
	sm := symbolMatches(c, sample)
	naive, err := SampleChernoff(c.Size(), MatchSampleValuer(c, sample), sm, minMatch, 1e-2, len(sample), opts)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	valuer, inc := IncrementalSampleValuer(c, sample, cfg)
	defer inc.Release()
	fast, err := SampleChernoff(c.Size(), valuer, sm, minMatch, 1e-2, len(sample), opts)
	if err != nil {
		t.Fatalf("incremental: %v", err)
	}

	if len(fast.Labels) != len(naive.Labels) {
		t.Fatalf("evaluated %d patterns, naive evaluated %d", len(fast.Labels), len(naive.Labels))
	}
	for key, label := range naive.Labels {
		if fast.Labels[key] != label {
			t.Errorf("pattern %s: incremental label %v, naive %v", key, fast.Labels[key], label)
		}
		if d := math.Abs(fast.Values[key] - naive.Values[key]); d > 1e-12 {
			t.Errorf("pattern %s: value drift %v (incremental %v, naive %v)",
				key, d, fast.Values[key], naive.Values[key])
		}
	}
	for _, pair := range []struct {
		name       string
		got, wantS *pattern.Set
	}{
		{"frequent", fast.Frequent, naive.Frequent},
		{"ambiguous", fast.Ambiguous, naive.Ambiguous},
	} {
		if pair.got.Len() != pair.wantS.Len() || pair.got.Diff(pair.wantS).Len() != 0 {
			t.Fatalf("%s set mismatch: incremental %v, naive %v",
				pair.name, pair.got.Patterns(), pair.wantS.Patterns())
		}
	}
	return fast, naive
}

func TestSampleChernoffIncrementalEquivalence(t *testing.T) {
	rng := testutil.Rng(t)
	motif := []pattern.Symbol{2, 5, 1, 4}
	sample := incTestSample(120, 24, 8, motif, rng)
	opts := Options{MaxLen: 5, MaxGap: 1}

	t.Run("dense-sequential", func(t *testing.T) {
		runBoth(t, incTestMatrix(t, 8, 0.1), sample, IncrementalConfig{}, 0.25, opts)
	})
	t.Run("dense-parallel", func(t *testing.T) {
		runBoth(t, incTestMatrix(t, 8, 0.1), sample, IncrementalConfig{Workers: 4}, 0.25, opts)
	})
	t.Run("sparse-parallel", func(t *testing.T) {
		runBoth(t, incTestSparse(t, 8), sample, IncrementalConfig{Workers: 4}, 0.25, opts)
	})
	t.Run("wide-alphabet", func(t *testing.T) {
		// 50 symbols: level 2 holds 5,000 candidates, most of them
		// infrequent, and the planted motif keeps deeper levels alive.
		wide := incTestSample(100, 40, 50, motif, rng)
		res, _ := runBoth(t, incTestMatrix(t, 50, 0.05), wide, IncrementalConfig{Workers: 4}, 0.12, opts)
		if len(res.CandidatesPerLevel) < 3 {
			t.Fatalf("lattice died at level %d", len(res.CandidatesPerLevel))
		}
	})
	t.Run("budget-fallback", func(t *testing.T) {
		metrics := &telemetry.Metrics{}
		runBoth(t, incTestMatrix(t, 8, 0.1), sample,
			IncrementalConfig{Workers: 3, Budget: 1, Metrics: metrics}, 0.25, opts)
		snap := metrics.Snapshot()
		if snap.KernelFallbacks == 0 {
			t.Fatalf("expected budget fallbacks in telemetry: %+v", snap)
		}
	})
}

func TestIncrementalValuerTelemetry(t *testing.T) {
	rng := testutil.Rng(t)
	sample := incTestSample(64, 20, 6, []pattern.Symbol{1, 3, 2}, rng)
	c := incTestMatrix(t, 6, 0.08)
	metrics := &telemetry.Metrics{}
	valuer, inc := IncrementalSampleValuer(c, sample, IncrementalConfig{Workers: 2, Metrics: metrics})
	defer inc.Release()
	res, err := SampleChernoff(c.Size(), valuer, symbolMatches(c, sample), 0.3, 1e-2, len(sample), Options{MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	snap := metrics.Snapshot()
	if snap.KernelExtended == 0 {
		t.Fatalf("no extensions recorded: %+v", snap)
	}
	if snap.KernelScratch == 0 {
		t.Fatal("level 1 should count as scratch")
	}
	if snap.KernelWindows == 0 || snap.KernelPeakBytes == 0 {
		t.Fatalf("cache accounting missing: windows=%d bytes=%d", snap.KernelWindows, snap.KernelPeakBytes)
	}
	if got := snap.KernelExtended + snap.KernelScratch; got != int64(len(res.Labels)) {
		t.Fatalf("kernel evaluated %d patterns, engine labeled %d", got, len(res.Labels))
	}
	if len(res.LevelMillis) != len(res.CandidatesPerLevel) {
		t.Fatalf("LevelMillis has %d entries for %d levels", len(res.LevelMillis), len(res.CandidatesPerLevel))
	}
}
