// Package lsp (long sequential patterns) is the public API of this
// reproduction of Yang, Wang, Yu & Han, "Mining Long Sequential Patterns in
// a Noisy Environment" (SIGMOD 2002).
//
// The library mines sequential patterns from a database of symbol sequences
// under the paper's match model: a compatibility matrix C(d_i, d_j) =
// Prob(true = d_i | observed = d_j) connects noisy observations to
// underlying true values, and a pattern's match in a sequence is the best
// sliding-window product of compatibilities — its "real support" had the
// data been noise free.
//
// The headline entry point is Mine, the three-phase probabilistic
// algorithm: one scan for exact symbol matches plus a random sample,
// in-memory Chernoff-bound classification of the sample, and border
// collapsing against the full (possibly disk-resident) database. Exhaustive
// and ExhaustiveSupport provide the deterministic reference miners, and
// MaxMiner the look-ahead baseline.
//
// See the examples directory for runnable walkthroughs and DESIGN.md for
// the system inventory.
package lsp

import (
	"io"
	"math/rand"

	"repro/internal/blosum"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/maxminer"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/support"
)

// Pattern types and helpers.
type (
	// Pattern is a list of positions, each a concrete Symbol or Eternal.
	Pattern = pattern.Pattern
	// Symbol identifies one alphabet symbol (0-based).
	Symbol = pattern.Symbol
	// Alphabet maps between symbol names and Symbol values.
	Alphabet = pattern.Alphabet
	// PatternSet is a set of distinct patterns.
	PatternSet = pattern.Set
)

// Eternal is the "don't care" pattern position (the paper's * symbol).
const Eternal = pattern.Eternal

// NewPattern builds and validates a pattern.
func NewPattern(positions ...Symbol) (Pattern, error) { return pattern.New(positions...) }

// NewAlphabet builds an alphabet from distinct names ("*" is reserved).
func NewAlphabet(names []string) (*Alphabet, error) { return pattern.NewAlphabet(names) }

// GenericAlphabet returns {d1, ..., dm}, the paper's example alphabet.
func GenericAlphabet(m int) *Alphabet { return pattern.GenericAlphabet(m) }

// AminoAlphabet returns the 20-letter amino-acid alphabet used by the
// protein experiments (BLOSUM row order).
func AminoAlphabet() *Alphabet { return blosum.Alphabet() }

// Compatibility matrices.
type (
	// Matrix is the dense compatibility matrix of Definition 3.4.
	Matrix = compat.Matrix
	// SparseMatrix stores only non-zero cells (for very large alphabets).
	SparseMatrix = compat.SparseMatrix
	// MatrixSource is the read interface both matrix kinds implement.
	MatrixSource = compat.Source
)

// SparseCell is one non-zero cell for NewSparseMatrix.
type SparseCell = compat.Cell

// NewMatrix validates dense[true][observed] rows (columns must sum to 1).
func NewMatrix(dense [][]float64) (*Matrix, error) { return compat.New(dense) }

// NewSparseMatrix builds an O(non-zeros) compatibility matrix from its
// non-zero cells — the representation for very large alphabets (observed
// columns must sum to 1).
func NewSparseMatrix(m int, cells []SparseCell) (*SparseMatrix, error) {
	return compat.NewSparse(m, cells)
}

// IdentityMatrix is the noise-free matrix under which match equals support.
func IdentityMatrix(m int) *Matrix { return compat.Identity(m) }

// UniformNoiseMatrix is the §5.1 matrix: stay with probability 1-alpha, flip
// to each other symbol with probability alpha/(m-1).
func UniformNoiseMatrix(m int, alpha float64) (*Matrix, error) {
	return compat.UniformNoise(m, alpha)
}

// MatrixFromChannel derives a compatibility matrix from a generative
// substitution channel by Bayes' rule (nil prior = uniform).
func MatrixFromChannel(sub [][]float64, prior []float64) (*Matrix, error) {
	return compat.FromChannel(sub, prior)
}

// BLOSUMCompatibility returns the compatibility matrix for BLOSUM50-driven
// amino-acid mutation with the given identity rate and score scaling.
func BLOSUMCompatibility(identity, lambda float64) (*Matrix, error) {
	return blosum.Compatibility(identity, lambda)
}

// BLOSUMChannel returns the generative substitution channel
// sub[i][j] = Prob(observed=j | true=i) for BLOSUM50-driven mutation —
// useful for simulating mutated sequence data that BLOSUMCompatibility then
// interprets.
func BLOSUMChannel(identity, lambda float64) ([][]float64, error) {
	return blosum.Channel(identity, lambda)
}

// ReadMatrix parses the text format produced by Matrix.WriteTo.
func ReadMatrix(r io.Reader) (*Matrix, error) { return compat.ReadFrom(r) }

// Sequence databases.
type (
	// Scanner is a scannable sequence database that counts full passes.
	Scanner = seqdb.Scanner
	// MemDB is an in-memory database; DiskDB streams a binary file.
	MemDB  = seqdb.MemDB
	DiskDB = seqdb.DiskDB
)

// NewMemDB wraps sequences in an in-memory database.
func NewMemDB(seqs [][]Symbol) *MemDB { return seqdb.NewMemDB(seqs) }

// OpenDB opens an on-disk database created with WriteDB (or seqdb.CreateFile).
func OpenDB(path string) (*DiskDB, error) { return seqdb.OpenFile(path) }

// WriteDB persists an in-memory database in the binary disk format.
func WriteDB(path string, db *MemDB) error { return seqdb.WriteFile(path, db) }

// LoadDB reads an on-disk database fully into memory.
func LoadDB(path string) (*MemDB, error) { return seqdb.LoadFile(path) }

// ReadTextDB parses one sequence per line of whitespace-separated names.
func ReadTextDB(r io.Reader, a *Alphabet) (*MemDB, error) { return seqdb.ReadText(r, a) }

// ReadFASTA parses FASTA records against a single-letter alphabet.
func ReadFASTA(r io.Reader, a *Alphabet) (*MemDB, error) { return seqdb.ReadFASTA(r, a) }

// Mining configuration and results.
type (
	// Config parameterizes Mine; see the field docs in internal/core.
	Config = core.Config
	// Result reports a Mine run (frequent set, border, scans, timings).
	Result = core.Result
	// Finalizer selects the Phase 3 strategy.
	Finalizer = core.Finalizer
	// MineOptions bounds the explored pattern space for the deterministic
	// miners (MaxLen, MaxGap, caps).
	MineOptions = miner.Options
	// MinedSet is the result of a deterministic (exhaustive) mining run.
	MinedSet = miner.Result
	// MaxMinerResult reports a MaxMiner run.
	MaxMinerResult = maxminer.Result
)

// Finalizer choices for Config.
const (
	BorderCollapsing = core.BorderCollapsing
	LevelWise        = core.LevelWise
	NoFinalizer      = core.None
)

// Mine runs the paper's three-phase probabilistic algorithm.
func Mine(db Scanner, c MatrixSource, cfg Config) (*Result, error) {
	return core.Mine(db, c, cfg)
}

// LearnMatrix estimates a compatibility matrix from aligned (true,
// observed) training sequence pairs, with additive smoothing.
func LearnMatrix(m int, truth, observed [][]Symbol, smoothing float64) (*Matrix, error) {
	return compat.LearnFromPairs(m, truth, observed, smoothing)
}

// Exhaustive mines the exact frequent set under the match measure, one scan
// per lattice level.
func Exhaustive(db Scanner, c MatrixSource, minMatch float64, opts MineOptions) (*MinedSet, error) {
	return core.Exhaustive(db, c, minMatch, opts)
}

// ExhaustiveSupport mines the exact frequent set under the classic support
// measure.
func ExhaustiveSupport(db Scanner, minSupport float64, m int, opts MineOptions) (*MinedSet, error) {
	return core.ExhaustiveSupport(db, minSupport, m, opts)
}

// MaxMiner runs the adapted Max-Miner look-ahead baseline under the match
// measure.
func MaxMiner(db Scanner, c MatrixSource, minMatch float64, opts MineOptions) (*MaxMinerResult, error) {
	return maxminer.Mine(c.Size(), miner.MatchDBValuer(db, c), minMatch, opts)
}

// TopKResult reports a TopK run.
type TopKResult = miner.TopKResult

// TopK finds the k highest-match patterns without a threshold, by
// best-first search over the lattice with Apriori upper bounds.
func TopK(db Scanner, c MatrixSource, k int, opts MineOptions) (*TopKResult, error) {
	return miner.TopK(c.Size(), miner.MatchDBValuer(db, c), k, 0, opts)
}

// MatchOf computes M(P,S), the best-window match of a pattern in a sequence
// (Definition 3.6).
func MatchOf(c MatrixSource, p Pattern, seq []Symbol) float64 {
	return match.Sequence(c, p, seq)
}

// MatchInDB computes each pattern's database match (Definition 3.7) in one
// scan.
func MatchInDB(db Scanner, c MatrixSource, ps []Pattern) ([]float64, error) {
	return match.DB(db, match.NewMatch(c), ps)
}

// SupportInDB computes each pattern's classic support in one scan.
func SupportInDB(db Scanner, ps []Pattern) ([]float64, error) {
	return support.DB(db, ps)
}

// SymbolMatches computes the match of every individual symbol in one scan
// (Algorithm 4.1 without sampling).
func SymbolMatches(db Scanner, c MatrixSource) ([]float64, error) {
	return match.Symbols(db, c)
}

// NewRand returns a seeded rand.Rand for reproducible mining runs.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
