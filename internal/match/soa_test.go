package match

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// TestSoAMatchesCompiledBitwise: a compiled batch must reproduce each
// pattern's Compiled.Match (itself == Sequence) bit for bit, summed in
// sequence order, under strictly positive matrices and under dense matrices
// with zeros, the identity and sparse matrices. Batches hold duplicates,
// prefixes and extensions of one another; databases of 1, 63, 64, 65 and
// 130 sequences end inside, at and past the 64-sequence run, and some carry
// empty sequences and one sequence longer than a run's 4 Ki symbols, so it
// is cut into pieces.
func TestSoAMatchesCompiledBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const m = 8
	counts := []int{1, 63, 64, 65, 130}
	ones, long := 0, 0
	for trial := 0; trial < 120; trial++ {
		c := batchMatrix(r, m, trial)
		ps := sharedPrefixBatch(r, m, 12)
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
		seqs := make([][]pattern.Symbol, counts[trial%len(counts)])
		for i := range seqs {
			seqs[i] = windowSeq(r, m, ps[r.Intn(len(ps))], windowCounts[r.Intn(len(windowCounts))])
		}
		if trial%3 == 1 {
			seqs[r.Intn(len(seqs))] = nil
		}
		if trial%8 == 2 {
			seqs[r.Intn(len(seqs))] = windowSeq(r, m, ps[r.Intn(len(ps))], 2*RunSymbols+r.Intn(RunSymbols))
			long++
		}
		want := make([]float64, len(ps))
		for k, seq := range seqs {
			one := make([]float64, len(ps))
			soa.Accumulate(one, [][]pattern.Symbol{seq})
			for i, cp := range compiled {
				v := cp.Match(seq)
				if k < 8 {
					if ref := Sequence(c, ps[i], seq); v != ref {
						t.Fatalf("trial %d pattern %v: Compiled %v != Sequence %v", trial, ps[i], v, ref)
					}
				}
				if one[i] != v {
					t.Fatalf("trial %d pattern %v sequence %d (length %d): batch %v != Compiled %v",
						trial, ps[i], k, len(seq), one[i], v)
				}
				if v == 1 {
					ones++
				}
				want[i] += v
			}
		}
		got := make([]float64, len(ps))
		soa.Accumulate(got, seqs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d pattern %v over %d sequences: batch sum %v != in-order Compiled sum %v",
					trial, ps[i], len(seqs), got[i], want[i])
			}
		}
	}
	if ones == 0 || long == 0 {
		t.Fatalf("coverage: %d matches of exactly 1, %d long sequences", ones, long)
	}
}

// TestTreeLongReach: a batch whose pattern reaches further than a run's
// 4 Ki symbols cuts long sequences into pieces as long as that reach, and
// still scores bit-identically to Compiled.Match.
func TestTreeLongReach(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const m = 5
	c := positiveMatrix(r, m)
	far := make(pattern.Pattern, RunSymbols+700)
	for i := range far {
		far[i] = pattern.Eternal
	}
	far[0], far[len(far)-1] = 1, 3
	ps := []pattern.Pattern{far, {1}, {1, 2}, far.Clone(), {1, pattern.Eternal, 3}}
	set, err := CompileSoA(c, ps)
	if err != nil {
		t.Fatal(err)
	}
	seqs := [][]pattern.Symbol{randomSeq(r, m, 3*RunSymbols), randomSeq(r, m, 40), nil, randomSeq(r, m, 2*RunSymbols)}
	seqs[0] = append(seqs[0], make([]pattern.Symbol, 3*RunSymbols)...)
	for _, seq := range seqs {
		want := make([]float64, len(ps))
		for i, p := range ps {
			cp, err := Compile(c, p)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = cp.Match(seq)
		}
		got := make([]float64, len(ps))
		set.Accumulate(got, [][]pattern.Symbol{seq})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sequence of %d symbols, pattern %d (length %d): batch %v != Compiled %v", len(seq), i, len(ps[i]), got[i], want[i])
			}
		}
	}
}

// batchMatrix alternates strictly positive matrices (random and uniform
// noise) with kernelMatrix's matrices with zeros.
func batchMatrix(r *rand.Rand, m, trial int) compat.Source {
	switch trial % 4 {
	case 0:
		return positiveMatrix(r, m)
	case 2:
		c, err := compat.UniformNoise(m, 0.05+0.3*r.Float64())
		if err != nil {
			panic(err)
		}
		return c
	default:
		return kernelMatrix(r, m, trial/2)
	}
}

// positiveMatrix is a random column-stochastic matrix with every cell > 0.
func positiveMatrix(r *rand.Rand, m int) *compat.Matrix {
	dense := make([][]float64, m)
	for i := range dense {
		dense[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		sum := 0.0
		for i := 0; i < m; i++ {
			dense[i][j] = 0.01 + r.Float64()
			sum += dense[i][j]
		}
		for i := 0; i < m; i++ {
			dense[i][j] /= sum
		}
	}
	return compat.MustNew(dense)
}

// sharedPrefixBatch draws n patterns that share prefixes the way a probe
// layer's do: after a random first pattern, each is a duplicate, a prefix or
// an extension of an earlier one, a one-symbol pattern, or fresh.
func sharedPrefixBatch(r *rand.Rand, m, n int) []pattern.Pattern {
	ps := []pattern.Pattern{randomValidPattern(r, m, 6)}
	for len(ps) < n {
		q := ps[r.Intn(len(ps))]
		switch r.Intn(5) {
		case 0:
			ps = append(ps, q.Clone())
		case 1:
			k := 1 + r.Intn(len(q))
			for q[k-1].IsEternal() {
				k--
			}
			ps = append(ps, q[:k].Clone())
		case 2:
			ext := q.Clone()
			for g := r.Intn(3); g > 0; g-- {
				ext = append(ext, pattern.Eternal)
			}
			ps = append(ps, append(ext, pattern.Symbol(r.Intn(m))))
		case 3:
			ps = append(ps, pattern.Pattern{pattern.Symbol(r.Intn(m))})
		default:
			ps = append(ps, randomValidPattern(r, m, 6))
		}
	}
	return ps
}

func randomValidPattern(r *rand.Rand, m, maxLen int) pattern.Pattern {
	for {
		if p := randomPattern(r, m, maxLen); p.Validate() == nil {
			return p
		}
	}
}

// TestSoAAccumulates: Accumulate adds onto the caller's sums rather than
// overwriting them, which the per-block accumulation relies on, under a
// matrix with zeros and a strictly positive one.
func TestSoAAccumulates(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const m = 6
	for _, c := range []compat.Source{randomMatrix(r, m), positiveMatrix(r, m)} {
		ps := []pattern.Pattern{{1, 2}, {3}, {1, 2}}
		soa, err := CompileSoA(c, ps)
		if err != nil {
			t.Fatal(err)
		}
		seq := randomSeq(r, m, 10)
		once := make([]float64, len(ps))
		soa.Accumulate(once, [][]pattern.Symbol{seq})
		twice := make([]float64, len(ps))
		soa.Accumulate(twice, [][]pattern.Symbol{seq})
		soa.Accumulate(twice, [][]pattern.Symbol{seq})
		for i := range once {
			if twice[i] != 2*once[i] {
				t.Fatalf("pattern %d: %v after two passes, want %v", i, twice[i], 2*once[i])
			}
		}
	}
}

func TestSoAEmptyBatch(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, c := range []compat.Source{randomMatrix(r, 5), positiveMatrix(r, 5)} {
		soa, err := CompileSoA(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		soa.Accumulate(nil, [][]pattern.Symbol{{0, 1}}) // must not panic
		acc := soa.NewBlocks(4, 0)
		acc.Observe([]pattern.Symbol{0, 1})
		if parts := acc.Partials(); len(parts) != 1 || parts[0].N != 1 || len(parts[0].Sums) != 0 {
			t.Fatalf("partials %+v, want one empty-sum block of one sequence", parts)
		}
		if soa.Len() != 0 {
			t.Fatalf("Len %d", soa.Len())
		}
	}
}

// TestBlocksSumPerBlock: Blocks cuts a pass into probe blocks by position —
// a start in mid-block fills that block first — and each partial is the
// in-order sum of its block's sequences, whether a run ends inside a block
// or spans several, and whether the sequences arrive one at a time (Observe)
// or laid out in an arena (ObserveAll).
func TestBlocksSumPerBlock(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const m = 6
	ps := []pattern.Pattern{{1, 2}, {3}, {0, pattern.Eternal, 4}, {1, 2, pattern.Eternal, 5}, {1, 2}}
	for _, c := range []compat.Source{randomMatrix(r, m), positiveMatrix(r, m)} {
		soa, err := CompileSoA(c, ps)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			size, start, n int
			inArena        bool
		}{{4, 6, 11, false}, {100, 30, 150, false}, {16, 0, 200, false}, {4, 6, 11, true}, {100, 30, 150, true}, {16, 0, 200, true}} {
			seqs := make([][]pattern.Symbol, tc.n)
			for i := range seqs {
				seqs[i] = randomSeq(r, m, 9)
			}
			if tc.n == 150 {
				seqs[77] = randomSeq(r, m, 3*RunSymbols) // may be cut into pieces
			}
			acc := soa.NewBlocks(tc.size, tc.start)
			for i := 0; i < len(seqs); {
				if !tc.inArena || r.Intn(3) == 0 {
					acc.Observe(seqs[i])
					i++
					continue
				}
				var arena []pattern.Symbol
				var ends []int
				for _, seq := range seqs[i:min(i+1+r.Intn(2*RunSeqs), len(seqs))] {
					arena = append(arena, seq...)
					ends = append(ends, len(arena))
				}
				acc.ObserveAll(arena, ends)
				i += len(ends)
			}
			var wantN []int
			for pos := tc.start; pos < tc.start+tc.n; pos++ {
				if len(wantN) == 0 || pos%tc.size == 0 {
					wantN = append(wantN, 0)
				}
				wantN[len(wantN)-1]++
			}
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
					for i, q := range ps {
						want[i] += Sequence(c, q, seq)
					}
				}
				next += p.N
				for i := range want {
					if p.Sums[i] != want[i] {
						t.Fatalf("size %d start %d block %d pattern %d: %v, want %v", tc.size, tc.start, b, i, p.Sums[i], want[i])
					}
				}
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

// TestTreeScratchBounded: the prefix-tree kernel's scratch is bounded by
// the run, not by the batch's alphabet or the database. One run holds its
// arena of RunSymbols symbols, a factor table of at most tableBytes, slots
// product vectors and one gathered factor vector of RunSymbols floats each
// (the batches here reach less than half a run), and one carried maximum
// per node. 2,000 distinct one-symbol patterns over a 2,000-symbol strictly
// positive matrix share no row and need no product vector; scored over
// 1,000 sequences their scratch stays under 2 MiB, against the 32 MB the
// matrix's rows take. A batch that shares prefixes and repeats symbols fills
// the table and needs several vectors, and a database with a sequence three
// runs long keeps them at that size.
func TestTreeScratchBounded(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	wide, err := compat.UniformNoise(2000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]pattern.Pattern, 2000)
	for i := range ones {
		ones[i] = pattern.Pattern{pattern.Symbol(i)}
	}
	narrow, err := compat.UniformNoise(6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		c     compat.Source
		ps    []pattern.Pattern
		slots int // the fewest product vectors the batch must need
		rows  int // the fewest factor-table rows it must share
	}{
		{"one-symbol", wide, ones, 0, 0},
		{"shared-prefix", narrow, sharedPrefixBatch(r, 6, 400), 2, 6},
	} {
		set, err := CompileSoA(tc.c, tc.ps)
		if err != nil {
			t.Fatal(err)
		}
		tr := set.tree
		if tr.slots < tc.slots || len(tr.shared) < tc.rows || 2*tr.maxOff >= RunSymbols {
			t.Fatalf("%s: the batch needs %d product vectors, shares %d rows and reaches %d, want at least %d, at least %d and less than half a run",
				tc.name, tr.slots, len(tr.shared), tr.maxOff, tc.slots, tc.rows)
		}
		m := tc.c.Size()
		seqs := make([][]pattern.Symbol, 1000)
		for i := range seqs {
			seqs[i] = randomSeq(r, m, 80)
		}
		seqs[500] = randomSeq(r, m, 3*RunSymbols)
		seqs[501] = append(randomSeq(r, m, 10), make([]pattern.Symbol, 3*RunSymbols)...)
		sums := make([]float64, set.Len())
		ru := newRun() // not from the pool: no other batch's buffers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, seq := range seqs {
			ru.add(tr, sums, seq)
		}
		ru.flush(tr)
		runtime.ReadMemStats(&after)
		vectors := 0
		for _, b := range ru.bufs {
			vectors += cap(b)
		}
		held := cap(ru.arena)*4 + cap(ru.table)*8 + vectors*8 + cap(ru.fac)*8 + cap(ru.carry)*8 +
			cap(ru.pieces)*int(unsafe.Sizeof(piece{})) + cap(ru.ends)*8 + cap(ru.dsts)*24 + cap(ru.vals)*24
		t.Logf("%s: %d nodes, %d table rows, %d vectors; scratch holds %d bytes; scoring allocated %d",
			tc.name, len(tr.nodes), len(tr.shared), tr.slots, held, after.TotalAlloc-before.TotalAlloc)
		if cap(ru.table)*8 > tableBytes || vectors > tr.slots*RunSymbols || cap(ru.fac) > RunSymbols ||
			cap(ru.arena) > RunSymbols || cap(ru.carry) > len(tr.nodes) ||
			cap(ru.pieces) > RunSeqs || cap(ru.ends) > RunSeqs || cap(ru.dsts) > RunSeqs {
			t.Fatalf("%s: scratch exceeds one run: table %d floats, %d vector floats for %d vectors, factors %d, arena %d, "+
				"carry %d for %d nodes, %d pieces, %d ends, %d dsts", tc.name, cap(ru.table), vectors, tr.slots, cap(ru.fac),
				cap(ru.arena), cap(ru.carry), len(tr.nodes), cap(ru.pieces), cap(ru.ends), cap(ru.dsts))
		}
		if held >= 2<<20 {
			t.Fatalf("%s: one run's scratch holds %d bytes, want < 2 MiB", tc.name, held)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
			t.Fatalf("%s: scoring 1,000 sequences allocated %d bytes, want < 2 MiB", tc.name, got)
		}
	}
}

// TestTreeDeepPattern: compiling and scoring a pattern of 300,000 positions
// needs no deeper Go stack than a short one: the tree is built without
// recursion, so a shard node handed such a batch does not exhaust its stack.
func TestTreeDeepPattern(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	r := rand.New(rand.NewSource(17))
	const m = 4
	c := positiveMatrix(r, m)
	deep := make(pattern.Pattern, 300000)
	for i := range deep {
		deep[i] = pattern.Symbol(r.Intn(m))
	}
	ps := []pattern.Pattern{deep, deep[:1000], {(deep[0] + 1) % m, 2}}
	set, err := CompileSoA(c, ps)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(set.tree.nodes); got != len(deep)+2 {
		t.Fatalf("%d tree nodes, want %d", got, len(deep)+2)
	}
	seqs := [][]pattern.Symbol{randomSeq(r, m, 2000), randomSeq(r, m, 50), append(deep[:1000:1000], 0, 1, 2)}
	got := make([]float64, len(ps))
	set.Accumulate(got, seqs)
	for i, p := range ps {
		cp, err := Compile(c, p)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for _, seq := range seqs {
			want += cp.Match(seq)
		}
		if got[i] != want {
			t.Fatalf("pattern %d (length %d): batch %v != Compiled %v", i, len(p), got[i], want)
		}
	}
}

// TestSoAAccumulateEach: AccumulateEach gives each sequence its own
// destination, so zeroed destinations hold each sequence's Compiled.Match,
// and a destination already holding a value is added to, across runs and a
// sequence longer than a run.
func TestSoAAccumulateEach(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	const m = 7
	for trial := 0; trial < 24; trial++ {
		c := batchMatrix(r, m, trial)
		ps := sharedPrefixBatch(r, m, 10)
		set, err := CompileSoA(c, ps)
		if err != nil {
			t.Fatal(err)
		}
		seqs := make([][]pattern.Symbol, 1+r.Intn(2*RunSeqs))
		for i := range seqs {
			seqs[i] = windowSeq(r, m, ps[r.Intn(len(ps))], windowCounts[r.Intn(len(windowCounts))])
		}
		if trial%6 == 3 {
			seqs[r.Intn(len(seqs))] = windowSeq(r, m, ps[0], RunSymbols+r.Intn(RunSymbols))
		}
		dsts := make([][]float64, len(seqs))
		for i := range dsts {
			dsts[i] = make([]float64, len(ps))
			dsts[i][0] = 1
		}
		set.AccumulateEach(dsts, seqs)
		for i, p := range ps {
			cp, err := Compile(c, p)
			if err != nil {
				t.Fatal(err)
			}
			for k, seq := range seqs {
				want := cp.Match(seq)
				if i == 0 {
					want += 1
				}
				if dsts[k][i] != want {
					t.Fatalf("trial %d pattern %v sequence %d: %v, want %v", trial, p, k, dsts[k][i], want)
				}
			}
		}
	}
}
