package match

import (
	"math/rand"
	"testing"

	"repro/internal/pattern"
)

// TestSoAMatchesCompiledBitwise: the structure-of-arrays kernel must
// reproduce Compiled.Match bit-for-bit — same operations, same order — on
// random matrices, patterns and sequences.
func TestSoAMatchesCompiledBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const m = 8
	for trial := 0; trial < 50; trial++ {
		c := randomMatrix(r, m)
		var ps []pattern.Pattern
		for len(ps) < 12 {
			p := randomPattern(r, m, 6)
			if p.Validate() == nil {
				ps = append(ps, p)
			}
		}
		soa, err := CompileSoA(c, ps)
		if err != nil {
			t.Fatal(err)
		}
		if soa.Len() != len(ps) {
			t.Fatalf("Len %d, want %d", soa.Len(), len(ps))
		}
		compiled := make([]*Compiled, len(ps))
		for i, p := range ps {
			if compiled[i], err = Compile(c, p); err != nil {
				t.Fatal(err)
			}
		}
		for s := 0; s < 40; s++ {
			seq := randomSeq(r, m, 15)
			sums := make([]float64, len(ps))
			soa.Observe(sums, seq)
			for i, cp := range compiled {
				if want := cp.Match(seq); sums[i] != want {
					t.Fatalf("trial %d pattern %v seq %v: SoA %v != Compiled %v",
						trial, ps[i], seq, sums[i], want)
				}
			}
		}
	}
}

// TestSoAAccumulates: Observe adds onto the caller's sums rather than
// overwriting them, which the per-block accumulation relies on.
func TestSoAAccumulates(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const m = 6
	c := randomMatrix(r, m)
	ps := []pattern.Pattern{{1, 2}, {3}}
	soa, err := CompileSoA(c, ps)
	if err != nil {
		t.Fatal(err)
	}
	seq := randomSeq(r, m, 10)
	once := make([]float64, len(ps))
	soa.Observe(once, seq)
	twice := make([]float64, len(ps))
	soa.Observe(twice, seq)
	soa.Observe(twice, seq)
	for i := range once {
		if twice[i] != 2*once[i] {
			t.Fatalf("pattern %d: %v after two observes, want %v", i, twice[i], 2*once[i])
		}
	}
}

func TestSoAEmptyBatch(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	c := randomMatrix(r, 5)
	soa, err := CompileSoA(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	soa.Observe(nil, []pattern.Symbol{0, 1}) // must not panic
	if soa.Len() != 0 {
		t.Fatalf("Len %d", soa.Len())
	}
}

// TestBlocksSumPerBlock: Blocks cuts a pass into probe blocks by position —
// a start in mid-block fills that block first — and each partial is the
// in-order sum of its block's sequences.
func TestBlocksSumPerBlock(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const m, size, start = 6, 4, 6
	c := randomMatrix(r, m)
	ps := []pattern.Pattern{{1, 2}, {3}, {0, pattern.Eternal, 4}}
	soa, err := CompileSoA(c, ps)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]pattern.Symbol, 11)
	for i := range seqs {
		seqs[i] = randomSeq(r, m, 9)
	}
	acc := soa.NewBlocks(size, start)
	for _, seq := range seqs {
		acc.Observe(seq)
	}
	// Positions 6..16 span blocks 1 (6,7), 2 (8..11), 3 (12..15), 4 (16).
	wantN := []int{2, 4, 4, 1}
	parts := acc.Partials()
	if len(parts) != len(wantN) {
		t.Fatalf("%d partials, want %d", len(parts), len(wantN))
	}
	next := 0
	for b, p := range parts {
		if p.N != wantN[b] {
			t.Fatalf("block %d holds %d sequences, want %d", b, p.N, wantN[b])
		}
		want := make([]float64, len(ps))
		for _, seq := range seqs[next : next+p.N] {
			soa.Observe(want, seq)
		}
		next += p.N
		for i := range want {
			if p.Sums[i] != want[i] {
				t.Fatalf("block %d pattern %d: %v, want %v", b, i, p.Sums[i], want[i])
			}
		}
	}
}

func TestSoARejectsInvalidPattern(t *testing.T) {
	c := randomMatrix(rand.New(rand.NewSource(3)), 4)
	if _, err := CompileSoA(c, []pattern.Pattern{{1}, {pattern.Eternal}}); err == nil {
		t.Error("CompileSoA accepted a pattern starting with an eternal symbol")
	}
}
