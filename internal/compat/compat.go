// Package compat implements the compatibility matrix of Yang et al.
// (Definition 3.4): an m×m matrix of conditional probabilities
//
//	C(d_i, d_j) = Prob(true value = d_i | observed value = d_j)
//
// connecting each observed symbol to the distribution of underlying true
// symbols. Rows are indexed by the true symbol, columns by the observed
// symbol; each column sums to 1. The eternal symbol * is fully compatible
// with every observation: C(*, d) = 1 for every d.
//
// Besides the dense representation the package maintains sparse adjacency
// lists in both directions, which the match computation and the symbol-match
// scan use to meet the paper's complexity bounds with sparse matrices, and
// which keep memory linear in the number of non-zero entries for very large
// alphabets (the paper's §6 future-work direction).
package compat

import (
	"fmt"
	"math"

	"repro/internal/pattern"
)

// SumTolerance is the permitted deviation of each column sum from 1.
const SumTolerance = 1e-6

// Entry is one non-zero cell of a sparse adjacency list.
type Entry struct {
	Sym pattern.Symbol // the other endpoint (true or observed, per list)
	P   float64        // the conditional probability
}

// Matrix is an immutable compatibility matrix. Construct with New or one of
// the specialized constructors; the zero value is not usable.
type Matrix struct {
	m          int
	dense      [][]float64 // dense[true][observed]
	byObserved [][]Entry   // for an observed symbol: non-zero (true, P) pairs
	byTrue     [][]Entry   // for a true symbol: non-zero (observed, P) pairs
}

// New validates and builds a matrix from dense[true][observed] rows. The
// matrix must be square and every column must sum to 1 within SumTolerance.
// A -0 cell is stored as +0, so +0 is the only zero a match kernel sees:
// the kernels order non-negative products by their bit patterns, where -0
// would rank above every positive value.
func New(dense [][]float64) (*Matrix, error) {
	m := len(dense)
	if m == 0 {
		return nil, fmt.Errorf("compat: empty matrix")
	}
	for i, row := range dense {
		if len(row) != m {
			return nil, fmt.Errorf("compat: row %d has %d columns, want %d", i, len(row), m)
		}
		for j, v := range row {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return nil, fmt.Errorf("compat: C(%d,%d)=%v outside [0,1]", i, j, v)
			}
		}
	}
	for j := 0; j < m; j++ {
		sum := 0.0
		for i := 0; i < m; i++ {
			sum += dense[i][j]
		}
		if math.Abs(sum-1) > SumTolerance {
			return nil, fmt.Errorf("compat: column %d sums to %v, want 1", j, sum)
		}
	}
	mat := &Matrix{m: m, dense: make([][]float64, m)}
	for i := range dense {
		row := make([]float64, m)
		for j, v := range dense[i] {
			if v == 0 {
				v = 0 // a -0 cell becomes +0
			}
			row[j] = v
		}
		mat.dense[i] = row
	}
	mat.buildSparse()
	return mat, nil
}

// MustNew is New but panics on invalid input; for tests and literals.
func MustNew(dense [][]float64) *Matrix {
	c, err := New(dense)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Matrix) buildSparse() {
	c.byObserved = make([][]Entry, c.m)
	c.byTrue = make([][]Entry, c.m)
	for i := 0; i < c.m; i++ {
		for j := 0; j < c.m; j++ {
			if p := c.dense[i][j]; p > 0 {
				c.byObserved[j] = append(c.byObserved[j], Entry{Sym: pattern.Symbol(i), P: p})
				c.byTrue[i] = append(c.byTrue[i], Entry{Sym: pattern.Symbol(j), P: p})
			}
		}
	}
}

// Identity returns the noise-free matrix for m symbols: C(d_i,d_j)=1 iff
// i==j. Under it the match metric coincides with classic support (§3).
func Identity(m int) *Matrix {
	dense := make([][]float64, m)
	for i := range dense {
		dense[i] = make([]float64, m)
		dense[i][i] = 1
	}
	c, err := New(dense)
	if err != nil {
		panic(err) // unreachable: identity columns sum to 1
	}
	return c
}

// UniformNoise returns the §5.1 matrix for noise level alpha: a symbol stays
// itself with probability 1-alpha and flips to each of the other m-1 symbols
// with probability alpha/(m-1). alpha must lie in [0,1) and m must be >= 2
// unless alpha is 0.
func UniformNoise(m int, alpha float64) (*Matrix, error) {
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("compat: alpha %v outside [0,1)", alpha)
	}
	if m < 2 && alpha > 0 {
		return nil, fmt.Errorf("compat: uniform noise needs m >= 2, got %d", m)
	}
	dense := make([][]float64, m)
	for i := range dense {
		dense[i] = make([]float64, m)
		for j := range dense[i] {
			if i == j {
				dense[i][j] = 1 - alpha
			} else {
				dense[i][j] = alpha / float64(m-1)
			}
		}
	}
	return New(dense)
}

// FromChannel derives the compatibility matrix from a generative noise
// channel by Bayes' rule: given sub[i][j] = Prob(observed=j | true=i) and a
// prior over true symbols, C(i,j) = sub[i][j]·prior[i] / Σ_k sub[k][j]·prior[k].
// A nil prior means uniform. Columns with zero evidence (no true symbol can
// produce that observation) are set to the identity column.
func FromChannel(sub [][]float64, prior []float64) (*Matrix, error) {
	m := len(sub)
	if m == 0 {
		return nil, fmt.Errorf("compat: empty channel")
	}
	if prior == nil {
		prior = make([]float64, m)
		for i := range prior {
			prior[i] = 1 / float64(m)
		}
	}
	if len(prior) != m {
		return nil, fmt.Errorf("compat: prior has %d entries, want %d", len(prior), m)
	}
	dense := make([][]float64, m)
	for i := range dense {
		if len(sub[i]) != m {
			return nil, fmt.Errorf("compat: channel row %d has %d columns, want %d", i, len(sub[i]), m)
		}
		dense[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		total := 0.0
		for i := 0; i < m; i++ {
			total += sub[i][j] * prior[i]
		}
		if total == 0 {
			dense[j][j] = 1
			continue
		}
		for i := 0; i < m; i++ {
			dense[i][j] = sub[i][j] * prior[i] / total
		}
	}
	return New(dense)
}

// Size returns the number of distinct symbols m.
func (c *Matrix) Size() int { return c.m }

// C returns the compatibility of the (possibly eternal) pattern symbol t
// with the observed symbol o: C(*, o) = 1, otherwise the matrix cell.
func (c *Matrix) C(t, o pattern.Symbol) float64 {
	if t.IsEternal() {
		return 1
	}
	return c.dense[t][o]
}

// TrueGiven returns the sparse list of true symbols with non-zero
// compatibility for an observed symbol (an observed column).
func (c *Matrix) TrueGiven(observed pattern.Symbol) []Entry {
	return c.byObserved[observed]
}

// ObservedGiven returns the sparse list of observed symbols with non-zero
// compatibility for a true symbol (a true-value row).
func (c *Matrix) ObservedGiven(t pattern.Symbol) []Entry {
	return c.byTrue[t]
}

// Row returns the dense row of compatibilities for a true symbol, indexed by
// observed symbol. The returned slice is the matrix's internal storage and
// must be treated as read-only; it exists for hot loops that would otherwise
// pay a two-level bounds check per cell.
func (c *Matrix) Row(t pattern.Symbol) []float64 {
	return c.dense[t]
}

// NonZero returns the number of non-zero cells.
func (c *Matrix) NonZero() int {
	n := 0
	for _, col := range c.byObserved {
		n += len(col)
	}
	return n
}

// Density returns NonZero / m².
func (c *Matrix) Density() float64 {
	return float64(c.NonZero()) / float64(c.m*c.m)
}

// IsIdentity reports whether the matrix is exactly the identity (the
// noise-free case under which match equals support).
func (c *Matrix) IsIdentity() bool {
	for i := 0; i < c.m; i++ {
		for j := 0; j < c.m; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if c.dense[i][j] != want {
				return false
			}
		}
	}
	return true
}

// Dense returns a deep copy of the dense cells (rows = true values).
func (c *Matrix) Dense() [][]float64 {
	out := make([][]float64, c.m)
	for i := range out {
		out[i] = make([]float64, c.m)
		copy(out[i], c.dense[i])
	}
	return out
}
