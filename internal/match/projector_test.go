package match

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// randSample builds a deterministic random sample over alphabet m.
func randSample(rng *rand.Rand, n, m int) [][]pattern.Symbol {
	sample := make([][]pattern.Symbol, n)
	for i := range sample {
		seq := make([]pattern.Symbol, 3+rng.Intn(12))
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(m))
		}
		sample[i] = seq
	}
	return sample
}

// projectorMatrices returns one all-positive matrix (ramp mode) and one with
// zero cells (sparse mode), both m×m.
func projectorMatrices(t *testing.T, m int) []*compat.Matrix {
	t.Helper()
	noisy, err := compat.UniformNoise(m, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return []*compat.Matrix{noisy, compat.Identity(m)}
}

// TestProjectorValueMatchesIncremental pins the core bit-identity contract:
// values produced by scratch builds (Build + ValueKids), chained extensions
// (Extend + ValueKids), per-pattern scratch valuation (Value), and the
// incremental level-wise kernel (ValueLevel) are all the same float64s.
func TestProjectorValueMatchesIncremental(t *testing.T) {
	const m = 4
	rng := rand.New(rand.NewSource(7))
	sample := randSample(rng, 67, m) // not a multiple of the 32-seq shard
	for _, c := range projectorMatrices(t, m) {
		pj := NewProjector(c, sample, 0)
		inc := NewIncremental(c, sample, IncrementalOptions{})
		defer inc.Release()

		// Walk levels 1..4 the way the level-wise kernel does, so its cache
		// extends blocks; compare every candidate against all projector paths.
		level := make([]pattern.Pattern, 0, m)
		for d := 0; d < m; d++ {
			level = append(level, pattern.Pattern{pattern.Symbol(d)})
		}
		for k := 1; k <= 4 && len(level) > 0; k++ {
			want, _, err := inc.ValueLevel(level)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range level {
				got, err := pj.Value(p)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[i] {
					t.Fatalf("ramp=%v: Value(%s) = %v, ValueLevel = %v", pj.ramp, p.Key(), got, want[i])
				}
			}
			// Next level: extend every pattern by every gap/symbol.
			var next []pattern.Pattern
			for _, p := range level {
				pr, err := pj.BuildInto(nil, p)
				if err != nil {
					t.Fatal(err)
				}
				for gap := 0; gap <= 1; gap++ {
					qLen := p.Len() + gap + 1
					ds := make([]pattern.Symbol, m)
					for d := range ds {
						ds[d] = pattern.Symbol(d)
					}
					kidVals := pr.ValueKids(qLen, ds)
					for d, kv := range kidVals {
						q := pattern.Extend(p, gap, pattern.Symbol(d))
						sv, err := pj.Value(q)
						if err != nil {
							t.Fatal(err)
						}
						if kv != sv {
							t.Fatalf("ramp=%v: ValueKids(%s) = %v, Value = %v", pj.ramp, q.Key(), kv, sv)
						}
						// The extended child projection must value grandkids
						// identically to a scratch build of the child.
						ext := pr.ExtendInto(nil, qLen, pattern.Symbol(d))
						scr, err := pj.BuildInto(nil, q)
						if err != nil {
							t.Fatal(err)
						}
						gql := qLen + 1
						ev := ext.ValueKids(gql, ds[:1])
						bv := scr.ValueKids(gql, ds[:1])
						if ev[0] != bv[0] {
							t.Fatalf("ramp=%v: extended vs built projection of %s disagree: %v vs %v",
								pj.ramp, q.Key(), ev[0], bv[0])
						}
					}
				}
				if len(next) < 6 {
					next = append(next, pattern.Extend(p, 0, pattern.Symbol(0)))
				}
			}
			level = next
		}
	}
}

// TestProjectorBoundDominates checks the bound-prune soundness contract in
// float64 arithmetic: for every child, Bound at the child's length and
// extension symbol is >= the child's exact value.
func TestProjectorBoundDominates(t *testing.T) {
	const m = 4
	rng := rand.New(rand.NewSource(11))
	sample := randSample(rng, 50, m)
	for _, c := range projectorMatrices(t, m) {
		pj := NewProjector(c, sample, 0)
		for d := 0; d < m; d++ {
			p := pattern.Pattern{pattern.Symbol(d)}
			pr, err := pj.BuildInto(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			for gap := 0; gap <= 2; gap++ {
				qLen := p.Len() + gap + 1
				clip := pr.ClipMax(qLen)
				for kd := 0; kd < m; kd++ {
					bound := pr.Bound(clip, pj.RowMax(pattern.Symbol(kd)))
					v, err := pj.Value(pattern.Extend(p, gap, pattern.Symbol(kd)))
					if err != nil {
						t.Fatal(err)
					}
					if bound < v {
						t.Fatalf("ramp=%v: bound %v < value %v for %s+gap%d+%d",
							pj.ramp, bound, v, p.Key(), gap, kd)
					}
				}
			}
		}
	}
}

// TestProjectorWindowBytesBound checks the deterministic admission bound
// really bounds what Build and Extend materialize.
func TestProjectorWindowBytesBound(t *testing.T) {
	const m = 3
	rng := rand.New(rand.NewSource(13))
	sample := randSample(rng, 40, m)
	for _, c := range projectorMatrices(t, m) {
		pj := NewProjector(c, sample, 0)
		p := pattern.Pattern{0, 1}
		pr, err := pj.BuildInto(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, bound := pr.Bytes(), pj.WindowBytesBound(2); got > bound {
			t.Fatalf("Build bytes %d > bound %d", got, bound)
		}
		ext := pr.ExtendInto(nil, 3, 2)
		if got, bound := ext.Bytes(), pj.WindowBytesBound(3); got > bound {
			t.Fatalf("Extend bytes %d > bound %d", got, bound)
		}
	}
}

// TestProjectorProfileMatchesValueKids pins the class-profile contract: one
// Profile walk must reproduce ClipMax's floats exactly and value every
// sibling bit-identically to the window-by-window ValueKids walk, in both
// storage modes, across gaps and pattern depths, with the scratch reused
// between calls.
func TestProjectorProfileMatchesValueKids(t *testing.T) {
	const m = 5
	rng := rand.New(rand.NewSource(17))
	sample := randSample(rng, 67, m)
	ds := make([]pattern.Symbol, m)
	for d := range ds {
		ds[d] = pattern.Symbol(d)
	}
	for _, c := range projectorMatrices(t, m) {
		pj := NewProjector(c, sample, 0)
		var sc ProfileScratch
		ps := []pattern.Pattern{
			{0}, {1}, {2, 0}, {0, pattern.Eternal, 1}, {1, 2, pattern.Eternal, 0},
		}
		for _, p := range ps {
			pr, err := pj.BuildInto(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			for gap := 0; gap <= 2; gap++ {
				qLen := p.Len() + gap + 1
				prof := pr.Profile(qLen, &sc)
				clip := pr.ClipMax(qLen)
				for si, want := range clip {
					if got := prof.Clip()[si]; got != want {
						t.Fatalf("ramp=%v: Profile clip[%d] of %s at qLen %d = %v, ClipMax = %v",
							pj.ramp, si, p.Key(), qLen, got, want)
					}
				}
				want := pr.ValueKids(qLen, ds)
				got := prof.ValueKids(ds)
				for d := range ds {
					if got[d] != want[d] {
						t.Fatalf("ramp=%v: Profile value of %s+gap%d+%d = %v, ValueKids = %v",
							pj.ramp, p.Key(), gap, d, got[d], want[d])
					}
				}
			}
		}
	}
}

// TestKernelsNegativeZeroMatrix: over a matrix given -0 cells, the probe
// batch kernel and the Phase 2 kernels (Projection.ValueKids in groups of
// 1, 2 and 4 children, Profile.ValueKids) equal per-pattern Compiled.Match
// with ==. The kernels take their maxima on bit patterns, where a -0 would
// outrank every positive product; compat.New stores such cells as +0.
func TestKernelsNegativeZeroMatrix(t *testing.T) {
	nz := math.Copysign(0, -1)
	c := compat.MustNew([][]float64{
		{0.7, nz, 0.2, nz},
		{0.3, 0.6, nz, 0.1},
		{nz, 0.4, 0.8, nz},
		{nz, nz, nz, 0.9},
	})
	sample := randomSample(70, 0, 30, 4, rand.New(rand.NewSource(11)))
	ds := []pattern.Symbol{0, 1, 2, 3}
	var ps []pattern.Pattern
	for _, a := range ds {
		ps = append(ps, pattern.Pattern{a})
		for _, b := range ds {
			ps = append(ps, pattern.MustNew(a, b), pattern.MustNew(a, pattern.Eternal, b))
		}
	}

	set, err := CompileSoA(c, ps)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([]float64, len(ps))
	set.Accumulate(sums, sample)
	for i, p := range ps {
		cp, err := Compile(c, p)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, seq := range sample {
			want += cp.Match(seq)
		}
		if sums[i] != want {
			t.Fatalf("batch kernel: %s sums to %v, Compiled.Match to %v", p.Key(), sums[i], want)
		}
	}

	pj := NewProjector(c, sample, 0)
	var sc ProfileScratch
	for _, p := range ps {
		pr, err := pj.BuildInto(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		for gap := 0; gap <= 1; gap++ {
			qLen := len(p) + gap + 1
			prof := pr.Profile(qLen, &sc)
			got := map[string][]float64{"Profile.ValueKids": prof.ValueKids(ds)}
			for _, k := range []int{1, 2, 4} {
				got[fmt.Sprintf("Projection.ValueKids/%d", k)] = pr.ValueKids(qLen, ds[:k])
			}
			for name, vals := range got {
				for i, v := range vals {
					q := pattern.Extend(p, gap, ds[i])
					want, err := pj.Value(q)
					if err != nil {
						t.Fatal(err)
					}
					if v != want {
						t.Fatalf("%s: %s = %v, Value = %v", name, q.Key(), v, want)
					}
				}
			}
		}
	}
}

// TestShardMeanMatchesKernel: ShardMean over each sequence's match, taken
// one destination per sequence with SoASet.AccumulateEach, is the Phase 2
// kernel's value bit for bit: Projector.Value's and the level-wise
// ValueLevel's, on samples that end inside, at and past a 32-sequence
// shard and past groups of four shards, under a ramp-mode and a
// sparse-mode matrix.
func TestShardMeanMatchesKernel(t *testing.T) {
	const m = 4
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 31, 32, 33, 67, 96, 128, 161, 300} {
		sample := randSample(rng, n, m)
		for _, c := range projectorMatrices(t, m) {
			pj := NewProjector(c, sample, 0)
			inc := NewIncremental(c, sample, IncrementalOptions{})
			level := make([]pattern.Pattern, 0, m)
			for d := 0; d < m; d++ {
				level = append(level, pattern.Pattern{pattern.Symbol(d)})
			}
			for k := 1; k <= 3; k++ {
				want, _, err := inc.ValueLevel(level)
				if err != nil {
					t.Fatal(err)
				}
				set, err := CompileSoA(c, level)
				if err != nil {
					t.Fatal(err)
				}
				dsts := make([][]float64, n)
				for i := range dsts {
					dsts[i] = make([]float64, len(level))
				}
				set.AccumulateEach(dsts, sample)
				col := make([]float64, n)
				for p, q := range level {
					for i := range col {
						col[i] = dsts[i][p]
					}
					got := ShardMean(col)
					v, err := pj.Value(q)
					if err != nil {
						t.Fatal(err)
					}
					if got != want[p] || got != v {
						t.Fatalf("n=%d ramp=%v %s: ShardMean %v, ValueLevel %v, Value %v", n, pj.ramp, q.Key(), got, want[p], v)
					}
				}
				var next []pattern.Pattern
				for _, p := range level {
					for gap := 0; gap <= 1; gap++ {
						next = append(next, pattern.Extend(p, gap, pattern.Symbol(rng.Intn(m))))
					}
				}
				level = next
			}
			inc.Release()
		}
	}
	if ShardMean(nil) != 0 {
		t.Fatal("ShardMean of no matches is not 0")
	}
}
