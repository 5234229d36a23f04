package match

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// SymbolAccumulator streams Algorithm 4.1's per-symbol match computation.
// Feed every sequence to Observe during a database scan, then call Matches
// with the sequence count to obtain match[d] for every symbol.
//
// The match of a symbol d in a sequence is the maximum of C(d, d') over the
// distinct symbols d' the sequence holds. Over an alphabet of at most 64
// symbols the accumulator can take it by row rank: the sequence's symbols
// form a 64-bit mask, and d's match is the first cell of d's row, ranked by
// probability, whose observed symbol is in the mask. Otherwise it keeps the
// paper's first-occurrence optimization: only the first occurrence of each
// observed symbol walks its column, giving O(N·min(l̄·m, l̄+m²)) overall —
// and, with a sparse matrix, O(N·(l̄ + touched-nonzeros)) without ever
// holding m² cells. Both take the same maximum, so they add the same bits
// to the sums.
//
// Which is cheaper depends on k, the number of distinct symbols in the
// sequence. Row rank visits, in each of the m rows, the cells ranked above
// the first one in the mask: about m/(k+1) of a dense row, m²/(k+1) in
// all. The column walk visits the k columns, k·m cells. So a sequence takes
// row rank when k(k+1) ≥ m, and the column walk otherwise.
type SymbolAccumulator struct {
	c    compat.Source
	sums []float64 // running Σ per-sequence max match, per symbol

	// ranked[d] is row d's non-zero cells by descending probability, for
	// alphabets of at most 64 symbols; nil otherwise.
	ranked [][]compat.Entry

	// The column walk's per-sequence state.
	maxm     []float64        // per-sequence max match, per symbol
	touched  []pattern.Symbol // symbols with non-zero maxm this sequence
	seenObs  []bool           // observed symbols already processed this sequence
	seenList []pattern.Symbol // to reset seenObs cheaply
}

// maskSymbols is the largest alphabet the row-rank path serves: the width
// of its symbol mask.
const maskSymbols = 64

// NewSymbolAccumulator builds an accumulator over c.
func NewSymbolAccumulator(c compat.Source) *SymbolAccumulator {
	m := c.Size()
	a := &SymbolAccumulator{c: c, sums: make([]float64, m), maxm: make([]float64, m), seenObs: make([]bool, m)}
	if m <= maskSymbols {
		a.ranked = make([][]compat.Entry, m)
		for d := range a.ranked {
			row := slices.Clone(c.ObservedGiven(pattern.Symbol(d)))
			slices.SortStableFunc(row, func(x, y compat.Entry) int { return cmp.Compare(y.P, x.P) })
			a.ranked[d] = row
		}
	}
	return a
}

// AlphabetError reports a sequence symbol outside the accumulator's
// alphabet of Size symbols, at position Pos of the sequence.
type AlphabetError struct {
	Symbol pattern.Symbol
	Pos    int
	Size   int
}

func (e *AlphabetError) Error() string {
	return fmt.Sprintf("match: symbol %d at position %d is outside the alphabet of %d symbols",
		uint32(e.Symbol), e.Pos, e.Size)
}

// Observe processes one sequence (lines 5–11 of Algorithm 4.1). A sequence
// holding a symbol outside the alphabet is rejected with an *AlphabetError
// before any sum moves.
func (a *SymbolAccumulator) Observe(seq []pattern.Symbol) error {
	m := len(a.sums)
	var mask uint64 // holds only the symbols below 64
	for i, obs := range seq {
		if uint32(obs) >= uint32(m) {
			return &AlphabetError{Symbol: obs, Pos: i, Size: m}
		}
		mask |= 1 << uint(obs)
	}
	if k := bits.OnesCount64(mask); a.ranked != nil && k*(k+1) >= m {
		a.walkRows(mask)
	} else {
		a.walkColumns(seq)
	}
	return nil
}

// walkRows is Observe's row rank over a sequence whose symbols form mask.
func (a *SymbolAccumulator) walkRows(mask uint64) {
	for d, row := range a.ranked {
		for _, e := range row {
			if mask>>uint(e.Sym)&1 != 0 {
				a.sums[d] += e.P
				break
			}
		}
	}
}

// walkColumns is Observe's first-occurrence column walk over a sequence of
// in-alphabet symbols.
func (a *SymbolAccumulator) walkColumns(seq []pattern.Symbol) {
	for _, obs := range seq {
		if a.seenObs[obs] {
			continue // first-occurrence optimization
		}
		a.seenObs[obs] = true
		a.seenList = append(a.seenList, obs)
		for _, e := range a.c.TrueGiven(obs) {
			if e.P > a.maxm[e.Sym] {
				if a.maxm[e.Sym] == 0 {
					a.touched = append(a.touched, e.Sym)
				}
				a.maxm[e.Sym] = e.P
			}
		}
	}
	for _, d := range a.touched {
		a.sums[d] += a.maxm[d]
		a.maxm[d] = 0
	}
	a.touched = a.touched[:0]
	for _, obs := range a.seenList {
		a.seenObs[obs] = false
	}
	a.seenList = a.seenList[:0]
}

// Matches returns match[d] for every symbol given the number of observed
// sequences n (Definition 3.7's division by N).
func (a *SymbolAccumulator) Matches(n int) []float64 {
	out := make([]float64, len(a.sums))
	if n <= 0 {
		return out
	}
	for i, s := range a.sums {
		out[i] = s / float64(n)
	}
	return out
}

// Sums returns a copy of the running per-symbol match sums (Matches before
// the division by N). A streaming pipeline checkpoints these raw sums so a
// restored accumulator continues bit-identically.
func (a *SymbolAccumulator) Sums() []float64 {
	out := make([]float64, len(a.sums))
	copy(out, a.sums)
	return out
}

// SetSums restores previously checkpointed sums. The slice length must be
// the alphabet size the accumulator was built with.
func (a *SymbolAccumulator) SetSums(sums []float64) error {
	if len(sums) != len(a.sums) {
		return fmt.Errorf("match: restoring %d symbol sums into an alphabet of %d", len(sums), len(a.sums))
	}
	copy(a.sums, sums)
	return nil
}

// Symbols computes the match of every individual symbol in one scan of the
// database (the convenience form of Algorithm 4.1 without sampling).
func Symbols(db seqdb.Scanner, c compat.Source) ([]float64, error) {
	acc := NewSymbolAccumulator(c)
	err := db.Scan(func(id int, seq []pattern.Symbol) error {
		if err := acc.Observe(seq); err != nil {
			return fmt.Errorf("sequence %d: %w", id, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return acc.Matches(db.Len()), nil
}

// SymbolsNaive is the unoptimized O(N·l̄·m) form of Algorithm 4.1 (no
// first-occurrence skip, dense column walks). It exists as the ablation
// baseline for the first-occurrence optimization micro-benchmark; results
// are identical to Symbols.
func SymbolsNaive(db seqdb.Scanner, c compat.Source) ([]float64, error) {
	m := c.Size()
	sums := make([]float64, m)
	maxm := make([]float64, m)
	err := db.Scan(func(id int, seq []pattern.Symbol) error {
		for i := range maxm {
			maxm[i] = 0
		}
		for _, obs := range seq {
			for d := 0; d < m; d++ {
				if v := c.C(pattern.Symbol(d), obs); v > maxm[d] {
					maxm[d] = v
				}
			}
		}
		for d := 0; d < m; d++ {
			sums[d] += maxm[d]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, m)
	if n := db.Len(); n > 0 {
		for i := range out {
			out[i] = sums[i] / float64(n)
		}
	}
	return out, nil
}
