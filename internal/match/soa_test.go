package match

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// TestSoAMatchesCompiledBitwise: the structure-of-arrays kernel must
// reproduce Compiled.Match and Sequence bit for bit — same operations, same
// order — on dense matrices with zeros, the identity and sparse matrices,
// with sequences whose window counts cover every block/tail split and that
// often carry one of the batch's patterns exactly.
func TestSoAMatchesCompiledBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const m = 8
	ones := 0
	for trial := 0; trial < 90; trial++ {
		c := kernelMatrix(r, m, trial)
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
			seq := windowSeq(r, m, ps[r.Intn(len(ps))], windowCounts[s%len(windowCounts)])
			sums := make([]float64, len(ps))
			soa.Observe(sums, seq)
			for i, cp := range compiled {
				want := Sequence(c, ps[i], seq)
				if got := cp.Match(seq); got != want {
					t.Fatalf("trial %d pattern %v seq %v: Compiled %v != Sequence %v",
						trial, ps[i], seq, got, want)
				}
				if sums[i] != want {
					t.Fatalf("trial %d pattern %v seq %v: SoA %v != Sequence %v",
						trial, ps[i], seq, sums[i], want)
				}
				if want == 1 {
					ones++
				}
			}
		}
	}
	if ones == 0 {
		t.Fatal("no sequence matched a pattern exactly 1")
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

// TestCompileSoAMemoryIndependentOfAlphabet: compiling a probe batch costs
// one dense matrix row per distinct pattern symbol, not a table per pattern
// over the alphabet. 4,000 one-symbol patterns sharing one symbol over a
// 4,000-symbol sparse identity compile in under 1 MiB; a patterns × alphabet
// byte table alone would take 16 MB.
func TestCompileSoAMemoryIndependentOfAlphabet(t *testing.T) {
	const m, n = 4000, 4000
	cells := make([]compat.Cell, m)
	for i := range cells {
		cells[i] = compat.Cell{True: pattern.Symbol(i), Observed: pattern.Symbol(i), P: 1}
	}
	c, err := compat.NewSparse(m, cells)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]pattern.Pattern, n)
	for i := range ps {
		ps[i] = pattern.Pattern{7}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	set, err := CompileSoA(c, ps)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != n {
		t.Fatalf("Len %d, want %d", set.Len(), n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("CompileSoA allocated %d bytes for %d one-symbol patterns over %d symbols, want < 1 MiB", got, n, m)
	}
}
