package match

import (
	"testing"

	"repro/internal/compat"
	"repro/internal/pattern"
)

// FuzzBatchKernel differentially checks a compiled batch against each
// pattern's Compiled.Match, summed in sequence order, with ==. It decodes
// three inputs:
//
//   - matrix: 2–24 symbols, strictly positive or with zeros;
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
	c := fuzzMatrix(matrix)
	m := c.Size()
	ps := fuzzBatch(batch, m)
	db, size, start := fuzzSeqs(seqs, m)

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

// fuzzMatrix decodes a column-stochastic matrix of 2–24 symbols from b: b[0]
// picks the size, b[1]'s low bit whether cells are strictly positive or
// weights below 128 become zeros, and the rest, cycled, the cell weights.
func fuzzMatrix(b []byte) *compat.Matrix {
	at := func(i int) byte {
		if len(b) == 0 {
			return 1
		}
		return b[i%len(b)]
	}
	m := 2 + int(at(0))%23
	positive := at(1)&1 == 0
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
			dense[i][j] /= sum
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

// fuzzSeqs decodes up to 200 sequences of length 0–300 over m symbols, and
// a probe block size (1–256) and start: b[0] is the count, b[1] the size,
// b[2] the start, and each sequence takes two length bytes and then one
// byte per symbol. Decoding stops where the input does, so the work an
// input costs stays proportional to its size.
func fuzzSeqs(b []byte, m int) ([][]pattern.Symbol, int, int) {
	if len(b) < 3 {
		return nil, 1, 0
	}
	n, size, start := int(b[0])%201, 1+int(b[1]), int(b[2])
	b = b[3:]
	var seqs [][]pattern.Symbol
	for len(seqs) < n && len(b) >= 2 {
		l := min((int(b[0])<<8|int(b[1]))%301, len(b)-2)
		seq := make([]pattern.Symbol, l)
		for j, v := range b[2 : 2+l] {
			seq[j] = pattern.Symbol(int(v) % m)
		}
		seqs = append(seqs, seq)
		b = b[2+l:]
	}
	return seqs, size, start
}
