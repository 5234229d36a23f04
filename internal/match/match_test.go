package match

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

const (
	d1 = pattern.Symbol(0)
	d2 = pattern.Symbol(1)
	d3 = pattern.Symbol(2)
	d4 = pattern.Symbol(3)
	d5 = pattern.Symbol(4)
	et = pattern.Eternal
)

// fig4DB is the sequence database of the paper's Figure 4(a).
func fig4DB() *seqdb.MemDB {
	return seqdb.NewMemDB([][]pattern.Symbol{
		{d1, d2, d3, d1},
		{d4, d2, d1},
		{d3, d4, d2, d1},
		{d2, d2},
	})
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSegmentPaperExamples(t *testing.T) {
	c := compat.Fig2()
	// §3: M(d1*d2, d1d2d2) = 0.9·1·0.8 = 0.72.
	p1 := pattern.MustNew(d1, et, d2)
	if got := Segment(c, p1, []pattern.Symbol{d1, d2, d2}); !almost(got, 0.72) {
		t.Errorf("M(d1*d2, d1d2d2)=%v, want 0.72", got)
	}
	// §3: M(d1d2d5, d1d2d2) = 0 because C(d5,d2)=0.
	p2 := pattern.MustNew(d1, d2, d5)
	if got := Segment(c, p2, []pattern.Symbol{d1, d2, d2}); got != 0 {
		t.Errorf("M(d1d2d5, d1d2d2)=%v, want 0", got)
	}
}

func TestSegmentPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	Segment(compat.Fig2(), pattern.MustNew(d1, d2), []pattern.Symbol{d1})
}

func TestSequencePaperExample(t *testing.T) {
	c := compat.Fig2()
	// §3: match of d1d2 in d1d2d2d3d4d1 = max{0.72,0.08,0.005,0,0} = 0.72.
	p := pattern.MustNew(d1, d2)
	seq := []pattern.Symbol{d1, d2, d2, d3, d4, d1}
	if got := Sequence(c, p, seq); !almost(got, 0.72) {
		t.Errorf("M=%v, want 0.72", got)
	}
}

func TestSequenceShorterThanPattern(t *testing.T) {
	c := compat.Fig2()
	p := pattern.MustNew(d1, d2, d3)
	if got := Sequence(c, p, []pattern.Symbol{d1, d2}); got != 0 {
		t.Errorf("M=%v, want 0", got)
	}
}

// fig4PatternMatches are golden two-symbol pattern matches from Figure 4(c),
// all hand-verified against the Figure 2 matrix and Definition 3.7.
var fig4PatternMatches = []struct {
	p    pattern.Pattern
	want float64
}{
	{pattern.MustNew(d1, d2), 0.2025},  // paper prints 0.203
	{pattern.MustNew(d2, d1), 0.39125}, // paper prints 0.391
	{pattern.MustNew(d4, d2), 0.32125}, // paper prints 0.321
	{pattern.MustNew(d3, d2), 0.07},
	{pattern.MustNew(d2, d2), 0.21}, // paper prints 0.200; 0.84/4 by Def. 3.7
	{pattern.MustNew(d3, d5), 0},
	{pattern.MustNew(d5, d5), 0},
}

func TestDBFig4Golden(t *testing.T) {
	c := compat.Fig2()
	db := fig4DB()
	ps := make([]pattern.Pattern, len(fig4PatternMatches))
	for i, g := range fig4PatternMatches {
		ps[i] = g.p
	}
	got, err := DB(db, NewMatch(c), ps)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range fig4PatternMatches {
		if !almost(got[i], g.want) {
			t.Errorf("M(%v,D)=%v, want %v", g.p, got[i], g.want)
		}
	}
	if db.Scans() != 1 {
		t.Errorf("DB consumed %d scans, want 1", db.Scans())
	}
}

func TestDBLongPatternGolden(t *testing.T) {
	// §3's worked chain: M(d3d2d2) = 0.016 on the Figure 4(a) database.
	c := compat.Fig2()
	got, err := DB(fig4DB(), NewMatch(c), []pattern.Pattern{pattern.MustNew(d3, d2, d2)})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got[0], 0.016) {
		t.Errorf("M(d3d2d2,D)=%v, want 0.016", got[0])
	}
}

func TestSymbolsFig4(t *testing.T) {
	// Per-symbol matches on Figure 4(a), computed from Definition 3.7 with
	// the Figure 2 matrix. (d2, d4 and d5 agree with the paper's Figure 5(b)
	// exactly; the paper's printed d1/d3 values are non-monotone in its own
	// cumulative table and thus inconsistent — see EXPERIMENTS.md.)
	c := compat.Fig2()
	db := fig4DB()
	got, err := Symbols(db, c)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.7, 0.8, 0.3875, 0.425, 0.075}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Errorf("match[d%d]=%v, want %v", i+1, got[i], want[i])
		}
	}
	if db.Scans() != 1 {
		t.Errorf("Symbols consumed %d scans", db.Scans())
	}
}

func TestSymbolsNaiveAgrees(t *testing.T) {
	c := compat.Fig2()
	a, err := Symbols(fig4DB(), c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SymbolsNaive(fig4DB(), c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !almost(a[i], b[i]) {
			t.Errorf("symbol %d: optimized %v vs naive %v", i, a[i], b[i])
		}
	}
}

func TestSymbolAccumulatorFigure5a(t *testing.T) {
	// Figure 5(a): per-symbol max match within sequence d1 d2 d3 d1.
	c := compat.Fig2()
	acc := NewSymbolAccumulator(c)
	acc.Observe([]pattern.Symbol{d1, d2, d3, d1})
	got := acc.Matches(1)
	want := []float64{0.9, 0.8, 0.7, 0.1, 0.15}
	for i := range want {
		if !almost(got[i], want[i]) {
			t.Errorf("max_match[d%d]=%v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestMatchEqualsSupportUnderIdentity(t *testing.T) {
	// §3 bridge property: with the identity matrix, match == support.
	c := compat.Identity(5)
	db := fig4DB()
	ps := []pattern.Pattern{
		pattern.MustNew(d1, d2),
		pattern.MustNew(d2, d1),
		pattern.MustNew(d4, d2),
		pattern.MustNew(d1, et, d3),
		pattern.MustNew(d2, et, d1),
		pattern.MustNew(d3),
	}
	gotMatch, err := DB(db, NewMatch(c), ps)
	if err != nil {
		t.Fatal(err)
	}
	wantSupport := []float64{0.25, 0.5, 0.5, 0.25, 0.25, 0.5}
	for i := range ps {
		if !almost(gotMatch[i], wantSupport[i]) {
			t.Errorf("identity match of %v = %v, want support %v", ps[i], gotMatch[i], wantSupport[i])
		}
	}
}

func TestSample(t *testing.T) {
	c := compat.Fig2()
	sample := [][]pattern.Symbol{{d1, d2, d2}, {d3}}
	p := pattern.MustNew(d1, et, d2)
	// Seq 1: 0.72 (computed above); seq 2 too short: 0.
	if got := Sample(NewMatch(c), p, sample); !almost(got, 0.36) {
		t.Errorf("Sample=%v, want 0.36", got)
	}
	if got := Sample(NewMatch(c), p, nil); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestCompiledAgreesWithSequence(t *testing.T) {
	c := compat.Fig2()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		// Random valid pattern and random sequence.
		l := 1 + rng.Intn(5)
		p := make(pattern.Pattern, l)
		for i := range p {
			if i > 0 && i < l-1 && rng.Intn(3) == 0 {
				p[i] = et
			} else {
				p[i] = pattern.Symbol(rng.Intn(5))
			}
		}
		seq := make([]pattern.Symbol, rng.Intn(12))
		for i := range seq {
			seq[i] = pattern.Symbol(rng.Intn(5))
		}
		cp, err := Compile(c, p)
		if err != nil {
			t.Fatal(err)
		}
		want := Sequence(c, p, seq)
		if got := cp.Match(seq); !almost(got, want) {
			t.Fatalf("trial %d: Compiled.Match(%v,%v)=%v, want %v", trial, p, seq, got, want)
		}
	}
}

func TestCompileRejectsInvalid(t *testing.T) {
	if _, err := Compile(compat.Fig2(), pattern.Pattern{et, d1}); err == nil {
		t.Error("invalid pattern compiled")
	}
}

// randomPattern and randomSeq support the property tests below.
func randomPattern(r *rand.Rand, m, maxLen int) pattern.Pattern {
	l := 1 + r.Intn(maxLen)
	p := make(pattern.Pattern, l)
	for i := range p {
		if i > 0 && i < l-1 && r.Intn(3) == 0 {
			p[i] = et
		} else {
			p[i] = pattern.Symbol(r.Intn(m))
		}
	}
	return p
}

func randomSeq(r *rand.Rand, m, maxLen int) []pattern.Symbol {
	s := make([]pattern.Symbol, 1+r.Intn(maxLen))
	for i := range s {
		s[i] = pattern.Symbol(r.Intn(m))
	}
	return s
}

func randomMatrix(r *rand.Rand, m int) *compat.Matrix {
	dense := make([][]float64, m)
	for i := range dense {
		dense[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		sum := 0.0
		col := make([]float64, m)
		for i := 0; i < m; i++ {
			if r.Intn(2) == 0 {
				col[i] = r.Float64()
				sum += col[i]
			}
		}
		if sum == 0 {
			col[j] = 1
			sum = 1
		}
		for i := 0; i < m; i++ {
			dense[i][j] = col[i] / sum
		}
	}
	return compat.MustNew(dense)
}

func TestQuickMatchInUnitInterval(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func() bool {
		m := 2 + r.Intn(6)
		c := randomMatrix(r, m)
		p := randomPattern(r, m, 6)
		s := randomSeq(r, m, 15)
		v := Sequence(c, p, s)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickAprioriOnSequences(t *testing.T) {
	// Claim 3.1: M(P,S) >= M(P',S) whenever P is a subpattern of P'.
	r := rand.New(rand.NewSource(22))
	f := func() bool {
		m := 2 + r.Intn(6)
		c := randomMatrix(r, m)
		super := randomPattern(r, m, 7)
		sub := super.Clone()
		for i := range sub {
			if r.Intn(2) == 0 {
				sub[i] = et
			}
		}
		sub = pattern.Trim(sub)
		if sub == nil {
			return true
		}
		s := randomSeq(r, m, 15)
		return Sequence(c, sub, s) >= Sequence(c, super, s)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickSymbolMatchIsUpperBound(t *testing.T) {
	// Claim 4.2: M(P,S) <= min over P's symbols of match[d] in S.
	r := rand.New(rand.NewSource(23))
	f := func() bool {
		m := 2 + r.Intn(6)
		c := randomMatrix(r, m)
		p := randomPattern(r, m, 6)
		s := randomSeq(r, m, 15)
		pv := Sequence(c, p, s)
		acc := NewSymbolAccumulator(c)
		acc.Observe(s)
		sym := acc.Matches(1)
		for _, d := range p.Symbols() {
			if pv > sym[d]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompiledEqualsReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	f := func() bool {
		m := 2 + r.Intn(8)
		c := randomMatrix(r, m)
		p := randomPattern(r, m, 6)
		s := randomSeq(r, m, 20)
		cp, err := Compile(c, p)
		if err != nil {
			return false
		}
		return almost(cp.Match(s), Sequence(c, p, s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
