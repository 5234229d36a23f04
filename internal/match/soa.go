package match

import (
	"repro/internal/compat"
	"repro/internal/pattern"
)

// SoASet is a probe batch compiled into its prefix tree (prefixTree) for
// matching against many sequences: sequences are scored in runs, and a
// prefix the patterns share is multiplied out once per run. It is immutable
// after CompileSoA and safe to share between goroutines that accumulate into
// distinct sums; its values are bit-identical to each pattern's
// Compiled.Match.
type SoASet struct {
	n    int
	tree *prefixTree
}

// CompileSoA compiles a probe batch. All patterns share one row cache, so
// the batch holds one matrix row per distinct pattern symbol.
func CompileSoA(c compat.Source, ps []pattern.Pattern) (*SoASet, error) {
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	return &SoASet{n: len(ps), tree: buildTree(newRowCache(c), ps)}, nil
}

// Len returns the number of compiled patterns.
func (s *SoASet) Len() int { return s.n }

// Accumulate adds every sequence's match to sums[i] for each pattern i, in
// sequence order. len(sums) must be Len(). Safe for concurrent use with
// distinct sums.
func (s *SoASet) Accumulate(sums []float64, seqs [][]pattern.Symbol) {
	var a accumulator
	for _, seq := range seqs {
		a.get().add(s.tree, sums, seq)
	}
	a.flush(s)
}

// AccumulateEach adds sequence i's match of pattern p to dsts[i][p]: one
// destination per sequence, so zeroed destinations receive each sequence's
// own matches, bit-identical to Compiled.Match. len(dsts) must be len(seqs)
// and each len(dsts[i]) must be Len(). Safe for concurrent use with distinct
// destinations.
func (s *SoASet) AccumulateEach(dsts [][]float64, seqs [][]pattern.Symbol) {
	var a accumulator
	for i, seq := range seqs {
		a.get().add(s.tree, dsts[i], seq)
	}
	a.flush(s)
}

// accumulator holds a pooled run while sequences are queued on it.
type accumulator struct {
	r *run
}

func (a *accumulator) get() *run {
	if a.r == nil {
		a.r = runs.Get().(*run)
	}
	return a.r
}

// flush scores what is queued and returns the run to the pool.
func (a *accumulator) flush(s *SoASet) {
	if a.r != nil {
		a.r.flush(s.tree)
		runs.Put(a.r)
		a.r = nil
	}
}

// Partial is one probe block's share of a batch's database match: the
// per-pattern sums of sequence matches over the block's sequences, and their
// count. Block length depends on the database length alone, so folding
// partials in ascending block order gives the same bits however the database
// is cut into shards.
type Partial struct {
	Sums []float64 `json:"sums"`
	N    int       `json:"n"`
}

// Blocks sums a batch per probe block over one pass that delivers sequences
// in position order: block b covers positions [b*size, (b+1)*size).
type Blocks struct {
	set   *SoASet
	size  int
	pos   int
	parts []Partial
	acc   accumulator
	dsts  [][]float64 // ObserveAll's per-sequence sums
}

// NewBlocks starts a per-block accumulation whose first sequence sits at
// position start.
func (s *SoASet) NewBlocks(size, start int) *Blocks {
	return &Blocks{set: s, size: size, pos: start}
}

// next counts a sequence at the next position and returns its block's sums.
func (b *Blocks) next() []float64 {
	if len(b.parts) == 0 || b.pos%b.size == 0 {
		b.parts = append(b.parts, Partial{Sums: make([]float64, b.set.n)})
	}
	p := &b.parts[len(b.parts)-1]
	p.N++
	b.pos++
	return p.Sums
}

// Observe adds the sequence at the next position to its block's partial. The
// sequence is copied if it is kept, so its buffer may be reused at once.
func (b *Blocks) Observe(seq []pattern.Symbol) {
	b.acc.get().add(b.set.tree, b.next(), seq)
}

// ObserveAll adds the sequences arena[ends[i-1]:ends[i]] (the first starting
// at 0) at the next positions. It scores them in place, without copying,
// before it returns.
func (b *Blocks) ObserveAll(arena []pattern.Symbol, ends []int) {
	r := b.acc.get()
	r.flush(b.set.tree)
	b.dsts = b.dsts[:0]
	for range ends {
		b.dsts = append(b.dsts, b.next())
	}
	r.scoreAll(b.set.tree, arena, ends, b.dsts)
	clear(b.dsts)
}

// Partials scores what is still queued and returns the partials of the
// blocks observed so far, in ascending block order.
func (b *Blocks) Partials() []Partial {
	b.acc.flush(b.set)
	return b.parts
}
