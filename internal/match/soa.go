package match

import (
	"repro/internal/compat"
	"repro/internal/pattern"
)

// SoASet is a pattern batch compiled into a structure-of-arrays layout:
// window lengths, non-eternal offsets and matrix rows live in flat parallel
// arrays, so the batch is matched against a sequence in one pass over
// contiguous memory. It is immutable after CompileSoA and safe to share
// between goroutines that accumulate into distinct sums. Per-sequence values
// come from the same window loop as Compiled.Match, so they are
// bit-identical to it.
type SoASet struct {
	n        int
	winLen   []int32     // pattern i's window length
	offStart []int32     // pattern i's offs/rows span [offStart[i], offStart[i+1])
	offs     []int       // flat non-eternal position offsets within the window
	rows     [][]float64 // matrix row per flat offset (shared via the row cache)
}

// CompileSoA compiles a probe batch into the flat layout. All patterns share
// one row cache, so the batch holds one matrix row per distinct pattern
// symbol.
func CompileSoA(c compat.Source, ps []pattern.Pattern) (*SoASet, error) {
	rc := newRowCache(c)
	s := &SoASet{
		n:        len(ps),
		winLen:   make([]int32, len(ps)),
		offStart: make([]int32, len(ps)+1),
	}
	for i, p := range ps {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		s.winLen[i] = int32(len(p))
		for off, d := range p {
			if d.IsEternal() {
				continue
			}
			s.offs = append(s.offs, off)
			s.rows = append(s.rows, rc.row(d))
		}
		s.offStart[i+1] = int32(len(s.offs))
	}
	return s, nil
}

// Len returns the number of compiled patterns.
func (s *SoASet) Len() int { return s.n }

// Observe accumulates one sequence's match into sums[i] for every pattern i.
// len(sums) must be Len(). Safe for concurrent use with distinct sums.
func (s *SoASet) Observe(sums []float64, seq []pattern.Symbol) {
	for p := 0; p < s.n; p++ {
		a, b := s.offStart[p], s.offStart[p+1]
		sums[p] += windowMax(seq, int(s.winLen[p]), s.offs[a:b], s.rows[a:b])
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
}

// NewBlocks starts a per-block accumulation whose first sequence sits at
// position start.
func (s *SoASet) NewBlocks(size, start int) *Blocks {
	return &Blocks{set: s, size: size, pos: start}
}

// Observe adds the sequence at the next position to its block's partial.
func (b *Blocks) Observe(seq []pattern.Symbol) {
	if len(b.parts) == 0 || b.pos%b.size == 0 {
		b.parts = append(b.parts, Partial{Sums: make([]float64, b.set.n)})
	}
	p := &b.parts[len(b.parts)-1]
	b.set.Observe(p.Sums, seq)
	p.N++
	b.pos++
}

// Partials returns the partials of the blocks observed so far, in ascending
// block order.
func (b *Blocks) Partials() []Partial { return b.parts }
