package match

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// columnWalkSums is the reference for SymbolAccumulator's sums: the
// first-occurrence column walk over every sequence, whatever the alphabet
// size.
func columnWalkSums(c compat.Source, seqs [][]pattern.Symbol) []float64 {
	m := c.Size()
	sums := make([]float64, m)
	maxm := make([]float64, m)
	for _, seq := range seqs {
		seen := make(map[pattern.Symbol]bool)
		var touched []pattern.Symbol
		for _, obs := range seq {
			if seen[obs] {
				continue
			}
			seen[obs] = true
			for _, e := range c.TrueGiven(obs) {
				if e.P > maxm[e.Sym] {
					if maxm[e.Sym] == 0 {
						touched = append(touched, e.Sym)
					}
					maxm[e.Sym] = e.P
				}
			}
		}
		for _, d := range touched {
			sums[d] += maxm[d]
			maxm[d] = 0
		}
	}
	return sums
}

// maskOf is the symbol mask Observe forms of a sequence over at most 64
// symbols.
func maskOf(seq []pattern.Symbol) uint64 {
	var mask uint64
	for _, s := range seq {
		mask |= 1 << uint(s)
	}
	return mask
}

// TestSymbolSumsMatchColumnWalk: the accumulator's Sums equal the column
// walk's bit for bit over random sequences of 1–50 symbols, which hold
// few distinct symbols or many, at every alphabet size from 1 to 64 and at
// sizes above 64 (the column walk itself), under dense matrices, matrices
// with zero cells, the identity, sparse matrices and uniform noise, whose
// rows hold ties. Up to 64 symbols row rank alone, over every sequence
// whatever its distinct symbols, gives the same bits too.
func TestSymbolSumsMatchColumnWalk(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	sizes := []int{65, 100, 300}
	for m := 1; m <= maskSymbols; m++ {
		sizes = append(sizes, m)
	}
	for _, m := range sizes {
		noise, err := compat.UniformNoise(m, 0.3)
		if m == 1 {
			noise, err = compat.UniformNoise(1, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, mat := range []struct {
			name string
			c    compat.Source
		}{
			{"dense", positiveMatrix(r, m)},
			{"with zeros", randomMatrix(r, m)},
			{"identity", compat.Identity(m)},
			{"sparse", randomSparseMatrix(r, m)},
			{"uniform", noise},
		} {
			name, c := mat.name, mat.c
			seqs := make([][]pattern.Symbol, 60)
			for i := range seqs {
				seqs[i] = randomSeq(r, m, 1+r.Intn(50))
			}
			acc, rows := NewSymbolAccumulator(c), NewSymbolAccumulator(c)
			if (acc.ranked != nil) != (m <= maskSymbols) {
				t.Fatalf("m=%d: row rank is %v", m, acc.ranked != nil)
			}
			for _, seq := range seqs {
				if err := acc.Observe(seq); err != nil {
					t.Fatal(err)
				}
				if rows.ranked != nil {
					rows.walkRows(maskOf(seq))
				}
			}
			paths := map[string][]float64{"Observe": acc.Sums()}
			if rows.ranked != nil {
				paths["row rank"] = rows.Sums()
			}
			want := columnWalkSums(c, seqs)
			for path, got := range paths {
				for d := range want {
					if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
						t.Fatalf("m=%d %s: %s sums symbol %d to %v, the column walk to %v", m, name, path, d, got[d], want[d])
					}
				}
			}
		}
	}
}

// TestSymbolAccumulatorRejectsOutOfAlphabet: a symbol at or above the
// alphabet size, or negative, is rejected with an *AlphabetError naming it
// and its position, on both paths, and leaves the sums as they were.
func TestSymbolAccumulatorRejectsOutOfAlphabet(t *testing.T) {
	for _, m := range []int{5, 70} {
		c := compat.Identity(m)
		acc := NewSymbolAccumulator(c)
		if err := acc.Observe([]pattern.Symbol{0, 1, 1}); err != nil {
			t.Fatal(err)
		}
		before := acc.Sums()
		for _, bad := range []pattern.Symbol{pattern.Symbol(m), pattern.Symbol(m + 2), pattern.Eternal} {
			err := acc.Observe([]pattern.Symbol{1, 2, bad, 0})
			var ae *AlphabetError
			if !errors.As(err, &ae) || ae.Symbol != bad || ae.Pos != 2 || ae.Size != m {
				t.Fatalf("m=%d symbol %d: got %v, want an AlphabetError at position 2", m, bad, err)
			}
			for d, s := range acc.Sums() {
				if s != before[d] {
					t.Fatalf("m=%d symbol %d: a rejected sequence moved symbol %d's sum", m, bad, d)
				}
			}
		}
	}
}

// TestLargeSparseAlphabetStaysSparse: an accumulator over a sparse matrix of
// 10,000 symbols allocates in proportion to its cells, never m² floats.
func TestLargeSparseAlphabetStaysSparse(t *testing.T) {
	const m = 10000
	cells := make([]compat.Cell, m)
	for i := range cells {
		cells[i] = compat.Cell{True: pattern.Symbol((i + 1) % m), Observed: pattern.Symbol(i), P: 1}
	}
	c, err := compat.NewSparse(m, cells)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	acc := NewSymbolAccumulator(c)
	for i := 0; i < 100; i++ {
		if err := acc.Observe([]pattern.Symbol{pattern.Symbol(i), pattern.Symbol(m - 1 - i)}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("an accumulator over a sparse %d-symbol matrix allocated %d bytes", m, got)
	}
	if s := acc.Sums(); s[1] != 1 || s[m-1] != 1 {
		t.Fatalf("sums of symbols 1 and %d are %v and %v, want 1", m-1, s[1], s[m-1])
	}
}

// BenchmarkSymbolAccumulator observes 1,000 sequences under
// UniformNoise(m, 0.05), at 20 and 64 symbols, over sequences of 24–40
// symbols and over short ones of 1–5, which hold few distinct symbols:
// through Observe, and for comparison by row rank alone and by the column
// walk alone.
func BenchmarkSymbolAccumulator(b *testing.B) {
	for _, shape := range []struct{ m, minLen, maxLen int }{
		{20, 24, 40}, {20, 1, 5}, {64, 24, 40}, {64, 1, 5},
	} {
		m := shape.m
		r := rand.New(rand.NewSource(5))
		seqs := make([][]pattern.Symbol, 1000)
		for i := range seqs {
			seqs[i] = make([]pattern.Symbol, shape.minLen+r.Intn(shape.maxLen-shape.minLen+1))
			for j := range seqs[i] {
				seqs[i][j] = pattern.Symbol(r.Intn(m))
			}
		}
		c, err := compat.UniformNoise(m, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		for _, path := range []string{"observe", "row-rank", "column-walk"} {
			b.Run(fmt.Sprintf("m=%d/len=%d-%d/%s", m, shape.minLen, shape.maxLen, path), func(b *testing.B) {
				for range b.N {
					acc := NewSymbolAccumulator(c)
					for _, seq := range seqs {
						switch path {
						case "observe":
							if err := acc.Observe(seq); err != nil {
								b.Fatal(err)
							}
						case "row-rank":
							acc.walkRows(maskOf(seq))
						default:
							acc.walkColumns(seq)
						}
					}
				}
			})
		}
	}
}
