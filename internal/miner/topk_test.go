package miner

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// bruteTopK computes the reference top-k by evaluating the whole space.
func bruteTopK(db *seqdb.MemDB, c *compat.Matrix, k, maxLen, maxGap int) []float64 {
	space := enumerateSpace(c.Size(), maxLen, maxGap)
	vals, err := match.DB(db, match.NewMatch(c), space)
	if err != nil {
		panic(err)
	}
	out := append([]float64(nil), vals...)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] > out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

func TestTopKMatchesBruteForce(t *testing.T) {
	c := compat.Fig2()
	for _, k := range []int{1, 3, 5, 10, 25} {
		for _, bounds := range [][2]int{{3, 0}, {3, 1}} {
			maxLen, maxGap := bounds[0], bounds[1]
			db := fig4DB()
			res, err := TopK(5, MatchDBValuer(db, c), k, 0, Options{MaxLen: maxLen, MaxGap: maxGap})
			if err != nil {
				t.Fatal(err)
			}
			want := bruteTopK(fig4DB(), c, k, maxLen, maxGap)
			if len(res.Values) != len(want) {
				t.Fatalf("k=%d: got %d values, want %d", k, len(res.Values), len(want))
			}
			for i := range want {
				if math.Abs(res.Values[i]-want[i]) > 1e-9 {
					t.Errorf("k=%d rank %d: got %v (%v), want %v",
						k, i, res.Values[i], res.Patterns[i], want[i])
				}
			}
			// Descending order.
			for i := 1; i < len(res.Values); i++ {
				if res.Values[i] > res.Values[i-1] {
					t.Errorf("k=%d: not descending at %d", k, i)
				}
			}
		}
	}
}

func TestTopKRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		m := 4 + rng.Intn(3)
		c, err := compat.UniformNoise(m, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		seqs := make([][]pattern.Symbol, 15)
		for i := range seqs {
			s := make([]pattern.Symbol, 4+rng.Intn(8))
			for j := range s {
				s[j] = pattern.Symbol(rng.Intn(m))
			}
			seqs[i] = s
		}
		k := 1 + rng.Intn(8)
		res, err := TopK(m, MatchDBValuer(seqdb.NewMemDB(seqs), c), k, 32, Options{MaxLen: 3, MaxGap: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteTopK(seqdb.NewMemDB(seqs), c, k, 3, 1)
		for i := range want {
			if math.Abs(res.Values[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d k=%d rank %d: %v vs %v", trial, k, i, res.Values[i], want[i])
			}
		}
	}
}

// TestTopKSeededWorkloadExact pins the full result — patterns and values,
// in order — on a seeded workload against an independent reference, so any
// change to the frontier bookkeeping (e.g. carrying Apriori bounds in the
// frontier entries instead of a side map) is proven behavior-identical.
func TestTopKSeededWorkloadExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	const m, maxLen, maxGap, k = 5, 4, 1, 20
	c, err := compat.UniformNoise(m, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]pattern.Symbol, 30)
	for i := range seqs {
		s := make([]pattern.Symbol, 6+rng.Intn(6))
		for j := range s {
			s[j] = pattern.Symbol(rng.Intn(m))
		}
		seqs[i] = s
	}

	res, err := TopK(m, MatchDBValuer(seqdb.NewMemDB(seqs), c), k, 0, Options{MaxLen: maxLen, MaxGap: maxGap})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: evaluate the whole space, order by (value desc, key asc) —
	// TopK's documented tie-break. Near-ties are ranked by the valuer's own
	// bits (its block-ordered sum), which must stay within reassociation of
	// the plain in-order sum.
	space := enumerateSpace(m, maxLen, maxGap)
	vals, err := MatchDBValuer(seqdb.NewMemDB(seqs), c)(space)
	if err != nil {
		t.Fatal(err)
	}
	inOrder, err := match.DB(seqdb.NewMemDB(seqs), match.NewMatch(c), space)
	if err != nil {
		t.Fatal(err)
	}
	for i := range space {
		if math.Abs(vals[i]-inOrder[i]) > 1e-12 {
			t.Fatalf("%v: valuer %v, in-order sum %v", space[i], vals[i], inOrder[i])
		}
	}
	type ref struct {
		key string
		v   float64
	}
	refs := make([]ref, len(space))
	for i, p := range space {
		refs[i] = ref{p.Key(), vals[i]}
	}
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].v != refs[b].v {
			return refs[a].v > refs[b].v
		}
		return refs[a].key < refs[b].key
	})

	if len(res.Patterns) != k {
		t.Fatalf("got %d patterns, want %d", len(res.Patterns), k)
	}
	for i := 0; i < k; i++ {
		if got, want := res.Patterns[i].Key(), refs[i].key; got != want {
			t.Errorf("rank %d: pattern %s, want %s", i, got, want)
		}
		if got, want := res.Values[i], refs[i].v; math.Abs(got-want) > 1e-12 {
			t.Errorf("rank %d: value %v, want %v", i, got, want)
		}
	}
}

func TestTopKPrunesSearch(t *testing.T) {
	// With k=1 the search should evaluate far fewer patterns than the space.
	c := compat.Fig2()
	res, err := TopK(5, MatchDBValuer(fig4DB(), c), 1, 16, Options{MaxLen: 3, MaxGap: 1})
	if err != nil {
		t.Fatal(err)
	}
	space := len(enumerateSpace(5, 3, 1))
	if res.Evaluated >= space {
		t.Errorf("evaluated %d of %d: no pruning", res.Evaluated, space)
	}
	if res.Scans < 1 {
		t.Error("no scans recorded")
	}
}

func TestTopKValidation(t *testing.T) {
	c := compat.Fig2()
	v := MatchDBValuer(fig4DB(), c)
	if _, err := TopK(5, v, 0, 0, Options{MaxLen: 3}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := TopK(5, nil, 1, 0, Options{MaxLen: 3}); err == nil {
		t.Error("nil valuer accepted")
	}
	if _, err := TopK(0, v, 1, 0, Options{MaxLen: 3}); err == nil {
		t.Error("m=0 accepted")
	}
	// A measure violating the Apriori bound is rejected (symbols get
	// distinct values so the best parent exceeds the k-th value and is
	// expanded before pruning can hide the violation).
	bad := func(ps []pattern.Pattern) ([]float64, error) {
		out := make([]float64, len(ps))
		for i, p := range ps {
			if p.K() == 1 {
				out[i] = 0.1 * float64(1+int(p[0]))
			} else {
				out[i] = 0.9 // exceeds every parent: invalid
			}
		}
		return out, nil
	}
	if _, err := TopK(3, bad, 2, 0, Options{MaxLen: 3}); err == nil {
		t.Error("non-monotone measure accepted")
	}
}
