package match

import (
	"repro/internal/compat"
	"repro/internal/pattern"
)

// rowCache materializes dense matrix rows on demand. For the dense Matrix it
// borrows internal rows directly; for a SparseMatrix (or any other Source)
// it expands rows from the sparse adjacency once and shares them across all
// patterns compiled against the same cache, so a batch over a huge alphabet
// pays O(m) per *distinct* pattern symbol, not per pattern position.
type rowCache struct {
	src   compat.Source
	dense interface {
		Row(pattern.Symbol) []float64
	}
	rows map[pattern.Symbol][]float64
}

func newRowCache(src compat.Source) *rowCache {
	rc := &rowCache{src: src}
	if d, ok := src.(interface {
		Row(pattern.Symbol) []float64
	}); ok {
		rc.dense = d
	} else {
		rc.rows = make(map[pattern.Symbol][]float64)
	}
	return rc
}

func (rc *rowCache) row(d pattern.Symbol) []float64 {
	if rc.dense != nil {
		return rc.dense.Row(d)
	}
	if r, ok := rc.rows[d]; ok {
		return r
	}
	r := make([]float64, rc.src.Size())
	for _, e := range rc.src.ObservedGiven(d) {
		r[e.Sym] = e.P
	}
	rc.rows[d] = r
	return r
}

// Compiled is a pattern pre-processed for repeated matching against many
// sequences. Compilation hoists the eternal positions out of the inner loop
// and caches each position's matrix row. Match skips windows whose first
// factor cannot beat the best so far, which covers every window whose first
// observed symbol has zero compatibility with the pattern's first symbol —
// the sparse-matrix fast path the paper alludes to for near-Θ(|S|) match
// computation (§4.2). Projection builds' appendWindows keep every non-zero
// window, so they filter on the first symbol alone (firstOK).
type Compiled struct {
	length  int
	offsets []int       // offsets of non-eternal positions within the window
	rows    [][]float64 // matrix row for each non-eternal position
	firstOK []bool      // firstOK[obs]: window starting at obs can be non-zero
}

// Compile prepares p for matching under c. The pattern must be valid.
func Compile(c compat.Source, p pattern.Pattern) (*Compiled, error) {
	return compileWith(newRowCache(c), c.Size(), p)
}

func compileWith(rc *rowCache, m int, p pattern.Pattern) (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cp := &Compiled{length: len(p)}
	for i, d := range p {
		if d.IsEternal() {
			continue
		}
		cp.offsets = append(cp.offsets, i)
		cp.rows = append(cp.rows, rc.row(d))
	}
	firstRow := cp.rows[0] // position 0 is non-eternal by validity
	cp.firstOK = make([]bool, m)
	for obs, v := range firstRow {
		cp.firstOK[obs] = v > 0
	}
	return cp, nil
}

// Match computes M(P,S) exactly like Sequence but with the precompiled
// structure.
func (cp *Compiled) Match(seq []pattern.Symbol) float64 {
	return windowMax(seq, cp.length, cp.offsets, cp.rows)
}

// windowMax is Compiled.Match's loop, one pattern's match against seq: the
// best product over its l-windows. It scores the windows in blocks of four
// consecutive ones. A block's four first factors are loaded
// and the block is skipped when none beats the best so far, which also skips
// every window whose first symbol is incompatible with the pattern's.
// Otherwise the four products are extended position by position as four
// independent multiply chains with no per-window branch; the block is
// abandoned once all four are at or below the best, and folded into it with
// max when it completes. The last (fewer than four) windows are scored one
// at a time under the same rules.
//
// The result is bit-identical to Sequence's one-window loop. Every product
// is still formed left to right from 1.0 over the same factors, and every
// factor lies in [0, 1] (compat.New and compat.NewSparse reject anything
// else), so a running product never grows: a window skipped or abandoned at
// or below the best ends there too, and the loop takes the max of exactly
// the products Sequence keeps. DESIGN.md ("The window kernel") has the
// measurements.
func windowMax(seq []pattern.Symbol, l int, offs []int, rows [][]float64) float64 {
	n := len(seq) - l + 1 // window count
	first, offs, rows := rows[0], offs[1:], rows[1:]
	best := 0.0
	w := 0
blocks:
	for ; w+4 <= n; w += 4 {
		v0, v1, v2, v3 := first[seq[w]], first[seq[w+1]], first[seq[w+2]], first[seq[w+3]]
		if v0 <= best && v1 <= best && v2 <= best && v3 <= best {
			continue
		}
		for j, off := range offs {
			r, i := rows[j], w+off
			v0 *= r[seq[i]]
			v1 *= r[seq[i+1]]
			v2 *= r[seq[i+2]]
			v3 *= r[seq[i+3]]
			if v0 <= best && v1 <= best && v2 <= best && v3 <= best {
				continue blocks
			}
		}
		if best = max(best, v0, v1, v2, v3); best == 1 {
			return 1
		}
	}
windows:
	for ; w < n; w++ {
		v := first[seq[w]]
		if v <= best {
			continue
		}
		for j, off := range offs {
			if v *= rows[j][seq[w+off]]; v <= best {
				continue windows
			}
		}
		if best = v; best == 1 {
			return 1
		}
	}
	return best
}

// appendWindows appends the start offset and full product of every window of
// seq whose product is non-zero, and returns the updated slices. Unlike Match
// it applies no best-so-far cutoff: a projection needs every surviving
// window's exact product, because a right-extension can promote any of them
// to the new maximum. Products are accumulated left to right over the
// non-eternal positions, the same order Match and Sequence use, so the
// values are bit-identical to theirs.
func (cp *Compiled) appendWindows(seq []pattern.Symbol, starts []int32, prods []float64) ([]int32, []float64) {
	l := cp.length
	for i := 0; i+l <= len(seq); i++ {
		if !cp.firstOK[seq[i]] {
			continue
		}
		v := 1.0
		for j, off := range cp.offsets {
			v *= cp.rows[j][seq[i+off]]
			if v == 0 {
				break
			}
		}
		if v == 0 {
			continue
		}
		starts = append(starts, int32(i))
		prods = append(prods, v)
	}
	return starts, prods
}

// appendProds is appendWindows for all-positive matrices, where every window
// survives: only the products are appended — the window starts are the
// implicit ramp 0,1,2,….
func (cp *Compiled) appendProds(seq []pattern.Symbol, prods []float64) []float64 {
	l := cp.length
	for i := 0; i+l <= len(seq); i++ {
		v := 1.0
		for j, off := range cp.offsets {
			v *= cp.rows[j][seq[i+off]]
		}
		prods = append(prods, v)
	}
	return prods
}
