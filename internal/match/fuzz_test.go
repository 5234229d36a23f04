package match

import (
	"math"
	"slices"
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// FuzzBatchKernel differentially checks a compiled batch against each
// pattern's Compiled.Match, summed in sequence order, with ==. It decodes
// three inputs:
//
//   - matrix: 2–24 symbols, strictly positive, with zeros or with -0 cells;
//   - batch: 1–40 patterns built to share prefixes — duplicates, prefixes
//     and extensions of earlier patterns, one-symbol patterns, and patterns
//     up to 24 long, longer than some sequences;
//   - seqs: 0–200 sequences of length 0–300, plus a probe block size and
//     start, so runs split mid-database (a run holds 64 sequences and
//     4 Ki symbols) and a sequence can overflow a run's remaining room.
//
// Accumulate and Blocks' partials, for the decoded block size and start and
// with sequences passed one at a time (Observe) or in arenas (ObserveAll),
// must equal the in-order sums exactly.
func FuzzBatchKernel(f *testing.F) {
	f.Fuzz(checkBatchKernel)
}

func checkBatchKernel(t *testing.T, matrix, batch, seqs []byte) {
	c := fuzzMatrix(matrix, 24)
	m := c.Size()
	ps := fuzzBatch(batch, m)
	db, size, start := fuzzSeqs(seqs, m, 200, 300)

	set, err := CompileSoA(c, ps)
	if err != nil {
		t.Fatal(err)
	}
	match := make([][]float64, len(db)) // match[k][i]: pattern i in sequence k
	for k := range match {
		match[k] = make([]float64, len(ps))
	}
	for i, p := range ps {
		cp, err := Compile(c, p)
		if err != nil {
			t.Fatal(err)
		}
		for k, seq := range db {
			match[k][i] = cp.Match(seq)
		}
	}
	want := make([]float64, len(ps))
	for k := range db {
		for i, v := range match[k] {
			want[i] += v
		}
	}
	got := make([]float64, len(ps))
	set.Accumulate(got, db)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pattern %v: batch sum %v != in-order Compiled sum %v", ps[i], got[i], want[i])
		}
	}

	one, arenas := set.NewBlocks(size, start), set.NewBlocks(size, start)
	for _, seq := range db {
		one.Observe(seq)
	}
	group := 1 + size%97 // sequences per ObserveAll arena
	for x := 0; x < len(db); x += group {
		var arena []pattern.Symbol
		var ends []int
		for _, seq := range db[x:min(x+group, len(db))] {
			arena = append(arena, seq...)
			ends = append(ends, len(arena))
		}
		arenas.ObserveAll(arena, ends)
	}
	for name, acc := range map[string]*Blocks{"Observe": one, "ObserveAll": arenas} {
		k := 0
		for b, part := range acc.Partials() {
			block := make([]float64, len(ps))
			for _, row := range match[k : k+part.N] {
				for i, v := range row {
					block[i] += v
				}
			}
			k += part.N
			for i := range block {
				if part.Sums[i] != block[i] {
					t.Fatalf("%s: block %d (size %d, start %d) pattern %v: %v != %v", name, b, size, start, ps[i], part.Sums[i], block[i])
				}
			}
		}
		if k != len(db) {
			t.Fatalf("%s: partials hold %d sequences, want %d", name, k, len(db))
		}
	}
}

// fuzzMatrix decodes a column-stochastic matrix of 2–maxM symbols from b:
// b[0] picks the size, b[1]'s low bit whether cells are strictly positive or
// weights below 128 become zeros, written as -0 when b[1]'s second bit is
// set too, and the rest, cycled, the cell weights.
func fuzzMatrix(b []byte, maxM int) *compat.Matrix {
	at := func(i int) byte {
		if len(b) == 0 {
			return 1
		}
		return b[i%len(b)]
	}
	m := 2 + int(at(0))%(maxM-1)
	positive := at(1)&1 == 0
	zero := 0.0
	if at(1)&2 != 0 {
		zero = math.Copysign(0, -1)
	}
	dense := make([][]float64, m)
	for i := range dense {
		dense[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		sum := 0.0
		for i := 0; i < m; i++ {
			w := float64(at(2 + j*m + i))
			if positive {
				w++
			} else if w < 128 {
				w = 0
			}
			dense[i][j] = w
			sum += w
		}
		if sum == 0 {
			dense[j][j], sum = 1, 1
		}
		for i := 0; i < m; i++ {
			if dense[i][j] /= sum; dense[i][j] == 0 {
				dense[i][j] = zero
			}
		}
	}
	return compat.MustNew(dense)
}

// fuzzBatch decodes 1–40 valid patterns over m symbols. Each step reads an
// op byte: 0 starts a fresh pattern of up to 24 positions, 1 duplicates an
// earlier one, 2 cuts a prefix of one, 3 extends one by a gap and a symbol,
// 4 adds a one-symbol pattern.
func fuzzBatch(b []byte, m int) []pattern.Pattern {
	i := 0
	next := func() int {
		if i >= len(b) {
			return 0
		}
		i++
		return int(b[i-1])
	}
	var ps []pattern.Pattern
	for i < len(b) && len(ps) < 40 {
		op := next() % 5
		if len(ps) == 0 {
			op = 0
		}
		switch op {
		case 0:
			p := make(pattern.Pattern, 1+next()%24)
			for j := range p {
				v := next()
				if j > 0 && j < len(p)-1 && v%4 == 0 {
					p[j] = pattern.Eternal
				} else {
					p[j] = pattern.Symbol(v % m)
				}
			}
			ps = append(ps, p)
		case 1:
			ps = append(ps, ps[next()%len(ps)].Clone())
		case 2:
			q := ps[next()%len(ps)]
			k := 1 + next()%len(q)
			for q[k-1].IsEternal() {
				k--
			}
			ps = append(ps, q[:k].Clone())
		case 3:
			q := ps[next()%len(ps)].Clone()
			for g := next() % 3; g > 0; g-- {
				q = append(q, pattern.Eternal)
			}
			ps = append(ps, append(q, pattern.Symbol(next()%m)))
		default:
			ps = append(ps, pattern.Pattern{pattern.Symbol(next() % m)})
		}
	}
	if len(ps) == 0 {
		ps = append(ps, pattern.Pattern{0})
	}
	return ps
}

// fuzzSeqs decodes up to maxN sequences of length 0–maxLen over m symbols,
// and a probe block size (1–256) and start: b[0] is the count, b[1] the
// size, b[2] the start, and each sequence takes two length bytes and then
// one byte per symbol. Decoding stops where the input does, so the work an
// input costs stays proportional to its size.
func fuzzSeqs(b []byte, m, maxN, maxLen int) ([][]pattern.Symbol, int, int) {
	if len(b) < 3 {
		return nil, 1, 0
	}
	n, size, start := int(b[0])%(maxN+1), 1+int(b[1]), int(b[2])
	b = b[3:]
	var seqs [][]pattern.Symbol
	for len(seqs) < n && len(b) >= 2 {
		l := min((int(b[0])<<8|int(b[1]))%(maxLen+1), len(b)-2)
		seq := make([]pattern.Symbol, l)
		for j, v := range b[2 : 2+l] {
			seq[j] = pattern.Symbol(int(v) % m)
		}
		seqs = append(seqs, seq)
		b = b[2+l:]
	}
	return seqs, size, start
}

// FuzzProjectionKernel differentially checks the Phase 2 kernel, with ==.
// It decodes a 2–12-symbol matrix (strictly positive, with zeros or with -0
// cells; see fuzzMatrix), a sample of 0–80 sequences of length 0–120 (see
// fuzzSeqs; its block size picks the projector's shard size), and from pat
// a pattern of 1–8 positions with eternal ones inside, a gap of 0–2 and a
// child symbol. Over the pattern's projection it checks:
//
//   - Profile.Clip against ClipMax at the child length;
//   - Profile.ValueKids, and Projection.ValueKids over groups of 1, 2 and
//     all symbols (so both its direct walk and its class pass run), against
//     Projector.Value, per-pattern Compiled.Match, for every child;
//   - the child's projection extended into the arrays of another pattern's
//     retired projection, larger and then smaller than the child's, against
//     a fresh build of the child, window by window.
func FuzzProjectionKernel(f *testing.F) {
	f.Fuzz(checkProjectionKernel)
}

func checkProjectionKernel(t *testing.T, matrix, sample, pat []byte) {
	c := fuzzMatrix(matrix, 12)
	m := c.Size()
	db, shardSize, _ := fuzzSeqs(sample, m, 80, 120)
	p, gap, d := fuzzPattern(pat, m)
	pj := NewProjector(c, db, 1+shardSize%40)
	pr, err := pj.BuildInto(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	qLen := len(p) + gap + 1

	var sc ProfileScratch
	prof := pr.Profile(qLen, &sc)
	for i, v := range pr.ClipMax(qLen) {
		if got := prof.Clip()[i]; got != v {
			t.Fatalf("%v: Profile clip[%d] = %v, ClipMax = %v", p, i, got, v)
		}
	}
	ds := make([]pattern.Symbol, m)
	want := make([]float64, m)
	for i := range ds {
		ds[i] = pattern.Symbol(i)
		if want[i], err = pj.Value(pattern.Extend(p, gap, ds[i])); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string, got []float64) {
		for i, v := range got {
			if v != want[i] {
				t.Fatalf("%s: child %v of %v (gap %d) = %v, Value = %v", name, ds[i], p, gap, v, want[i])
			}
		}
	}
	check("Profile.ValueKids", prof.ValueKids(ds))
	for _, k := range []int{1, 2, m} {
		check("Projection.ValueKids", pr.ValueKids(qLen, ds[:k]))
	}

	q := pattern.Extend(p, gap, d)
	fresh, err := pj.BuildInto(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []pattern.Pattern{{d}, append(q.Clone(), d, d)} {
		dst, err := pj.BuildInto(nil, other)
		if err != nil {
			t.Fatal(err)
		}
		got := pr.ExtendInto(dst, qLen, d)
		for s := range fresh.shards {
			fw, gw := &fresh.shards[s], &got.shards[s]
			if !slices.Equal(fw.offs, gw.offs) || !slices.Equal(fw.prods, gw.prods) || !slices.Equal(fw.starts, gw.starts) {
				t.Fatalf("%v extended into %v's arrays: shard %d differs from a fresh build", q, other, s)
			}
		}
	}
}

// fuzzPattern decodes a valid pattern of 1–8 positions over m symbols (b[0]
// the length, then one byte a position; an inner byte divisible by 4 makes
// the position eternal), a gap of 0–2 and a child symbol.
func fuzzPattern(b []byte, m int) (pattern.Pattern, int, pattern.Symbol) {
	i := 0
	next := func() int {
		if i >= len(b) {
			return 1
		}
		i++
		return int(b[i-1])
	}
	p := make(pattern.Pattern, 1+next()%8)
	for j := range p {
		v := next()
		if j > 0 && j < len(p)-1 && v%4 == 0 {
			p[j] = pattern.Eternal
		} else {
			p[j] = pattern.Symbol(v % m)
		}
	}
	return p, next() % 3, pattern.Symbol(next() % m)
}
