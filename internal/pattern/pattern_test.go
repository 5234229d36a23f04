package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Symbols d1..d5 as 0-based Symbol values, matching the paper's examples.
const (
	d1 = Symbol(0)
	d2 = Symbol(1)
	d3 = Symbol(2)
	d4 = Symbol(3)
	d5 = Symbol(4)
	et = Eternal
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Pattern
		ok   bool
	}{
		{"single symbol", Pattern{d1}, true},
		{"with internal gap", Pattern{d1, et, d3}, true},
		{"long gap", Pattern{d1, et, et, d4, d5}, true},
		{"empty", Pattern{}, false},
		{"leading eternal", Pattern{et, d2}, false},
		{"trailing eternal", Pattern{d1, et}, false},
		{"only eternal", Pattern{et}, false},
		{"invalid negative symbol", Pattern{Symbol(-7), d1}, false},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(et, d1); err == nil {
		t.Fatal("New accepted a pattern starting with *")
	}
	p, err := New(d1, et, d3)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if p.Len() != 3 || p.K() != 2 {
		t.Fatalf("got Len=%d K=%d, want 3,2", p.Len(), p.K())
	}
}

func TestKAndLen(t *testing.T) {
	p := MustNew(d1, et, et, d4, d5)
	if p.Len() != 5 {
		t.Errorf("Len=%d, want 5", p.Len())
	}
	if p.K() != 3 {
		t.Errorf("K=%d, want 3", p.K())
	}
}

func TestSubpatternPaperExamples(t *testing.T) {
	// From §3: d1*d3 and d1**d4d5 are subpatterns of d1*d3d4d5; d1d2 is not.
	super := MustNew(d1, et, d3, d4, d5)
	if !MustNew(d1, et, d3).IsSubpatternOf(super) {
		t.Error("d1 * d3 should be a subpattern of d1 * d3 d4 d5")
	}
	if !MustNew(d1, et, et, d4, d5).IsSubpatternOf(super) {
		t.Error("d1 * * d4 d5 should be a subpattern of d1 * d3 d4 d5")
	}
	if MustNew(d1, d2).IsSubpatternOf(super) {
		t.Error("d1 d2 should NOT be a subpattern of d1 * d3 d4 d5")
	}
}

func TestSubpatternOffsets(t *testing.T) {
	super := MustNew(d1, d2, d3, d4)
	for _, sub := range []Pattern{
		MustNew(d2, d3),
		MustNew(d3, d4),
		MustNew(d1, et, d3),
		MustNew(d2, et, d4),
		MustNew(d4),
	} {
		if !sub.IsSubpatternOf(super) {
			t.Errorf("%v should be a subpattern of %v", sub, super)
		}
	}
	for _, notSub := range []Pattern{
		MustNew(d4, d3),
		MustNew(d1, d3),
		MustNew(d5),
		MustNew(d1, d2, d3, d4, d5),
	} {
		if notSub.IsSubpatternOf(super) {
			t.Errorf("%v should NOT be a subpattern of %v", notSub, super)
		}
	}
}

func TestProperSubpattern(t *testing.T) {
	p := MustNew(d1, d2)
	if p.IsProperSubpatternOf(p) {
		t.Error("a pattern is not a proper subpattern of itself")
	}
	if !p.IsSubpatternOf(p) {
		t.Error("a pattern is a subpattern of itself")
	}
	if !p.IsProperSubpatternOf(MustNew(d1, d2, d3)) {
		t.Error("d1 d2 is a proper subpattern of d1 d2 d3")
	}
}

func TestTrim(t *testing.T) {
	if got := Trim(Pattern{et, et, d1, et, d2, et}); !got.Equal(MustNew(d1, et, d2)) {
		t.Errorf("Trim: got %v", got)
	}
	if got := Trim(Pattern{et, et}); got != nil {
		t.Errorf("Trim of all-eternal: got %v, want nil", got)
	}
	if got := Trim(Pattern{d1}); !got.Equal(MustNew(d1)) {
		t.Errorf("Trim identity: got %v", got)
	}
}

func TestExtend(t *testing.T) {
	p := MustNew(d1)
	q := Extend(p, 2, d4)
	if !q.Equal(MustNew(d1, et, et, d4)) {
		t.Errorf("Extend: got %v", q)
	}
	if len(p) != 1 {
		t.Error("Extend mutated its input")
	}
}

func TestImmediateSubpatterns(t *testing.T) {
	p := MustNew(d1, et, d3, d4)
	subs := NewSet(p.ImmediateSubpatterns()...)
	want := NewSet(
		MustNew(d3, d4),         // drop d1, trim leading * *
		MustNew(d1, et, et, d4), // star d3
		MustNew(d1, et, d3),     // star d4, trim
	)
	if subs.Len() != want.Len() {
		t.Fatalf("got %d immediate subpatterns, want %d: %v", subs.Len(), want.Len(), subs.Patterns())
	}
	for _, w := range want.Patterns() {
		if !subs.Contains(w) {
			t.Errorf("missing immediate subpattern %v", w)
		}
	}
	if got := MustNew(d1).ImmediateSubpatterns(); got != nil {
		t.Errorf("1-pattern should have no immediate subpatterns, got %v", got)
	}
}

func TestKeyAndEqual(t *testing.T) {
	a := MustNew(d1, et, d3)
	b := MustNew(d1, et, d3)
	c := MustNew(d1, d2, d3)
	if a.Key() != b.Key() || !a.Equal(b) {
		t.Error("equal patterns must share Key")
	}
	if a.Key() == c.Key() || a.Equal(c) {
		t.Error("distinct patterns must differ")
	}
	// Key must distinguish multi-digit symbols from concatenations.
	x := Pattern{Symbol(1), Symbol(12)}
	y := Pattern{Symbol(11), Symbol(2)}
	if x.Key() == y.Key() {
		t.Errorf("Key collision: %q", x.Key())
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		p := randomPattern(r, 20, 10)
		got, err := ParseKey(p.Key())
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", p.Key(), err)
		}
		if !got.Equal(p) {
			t.Fatalf("round trip changed %v to %v", p, got)
		}
	}
	if _, err := ParseKey(""); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := ParseKey("1,x"); err == nil {
		t.Error("garbage key accepted")
	}
	// Key renders every negative symbol as "*", so a negative number in a
	// key could never come back out of Key.
	for _, key := range []string{"-10", "-1,0", "3,-2", "0,*,-1"} {
		if p, err := ParseKey(key); err == nil {
			t.Errorf("ParseKey(%q) accepted as %v", key, p)
		}
	}
}

func TestStringRendering(t *testing.T) {
	if got := MustNew(d1, et, d3).String(); got != "d1 * d3" {
		t.Errorf("String: got %q", got)
	}
}

func TestSymbols(t *testing.T) {
	p := MustNew(d1, et, d3, d1)
	syms := p.Symbols()
	if len(syms) != 2 || syms[0] != d1 || syms[1] != d3 {
		t.Errorf("Symbols: got %v", syms)
	}
}

func TestSetOperations(t *testing.T) {
	s := NewSet(MustNew(d1), MustNew(d1, d2), MustNew(d1)) // dup collapses
	if s.Len() != 2 {
		t.Fatalf("Len=%d, want 2", s.Len())
	}
	if !s.Contains(MustNew(d1, d2)) {
		t.Error("Contains failed")
	}
	if s.Add(MustNew(d1)) {
		t.Error("Add of duplicate reported true")
	}
	if !s.Remove(MustNew(d1)) || s.Contains(MustNew(d1)) {
		t.Error("Remove failed")
	}
	if s.Remove(MustNew(d5)) {
		t.Error("Remove of absent reported true")
	}

	a := NewSet(MustNew(d1), MustNew(d2))
	b := NewSet(MustNew(d2), MustNew(d3))
	if got := a.Intersect(b); got.Len() != 1 || !got.Contains(MustNew(d2)) {
		t.Errorf("Intersect: %v", got.Patterns())
	}
	if got := a.Diff(b); got.Len() != 1 || !got.Contains(MustNew(d1)) {
		t.Errorf("Diff: %v", got.Patterns())
	}
	a.Union(b)
	if a.Len() != 3 {
		t.Errorf("Union: Len=%d", a.Len())
	}
}

func TestSetPatternsDeterministic(t *testing.T) {
	s := NewSet(MustNew(d3), MustNew(d1), MustNew(d2))
	first := s.Patterns()
	for i := 0; i < 5; i++ {
		again := s.Patterns()
		for j := range first {
			if !first[j].Equal(again[j]) {
				t.Fatal("Patterns() order is not deterministic")
			}
		}
	}
}

func TestSetCoverage(t *testing.T) {
	border := NewSet(MustNew(d1, d2, d3), MustNew(d1, et, et, d4))
	// Frequent region = subpatterns of border elements.
	for _, p := range []Pattern{
		MustNew(d1, d2), MustNew(d2, d3), MustNew(d1, et, d3), MustNew(d1, et, et, d4),
	} {
		if !border.CoveredBy(p) {
			t.Errorf("%v should be covered by the border", p)
		}
	}
	if border.CoveredBy(MustNew(d1, d2, d3, d4)) {
		t.Error("superpattern of a border element must not be covered")
	}
	if !border.Covers(MustNew(d1, d2, d3, d4, d5)) {
		t.Error("Covers: d1 d2 d3 d4 d5 is a superpattern of the border element d1 d2 d3")
	}
}

func TestSetMinMaxK(t *testing.T) {
	s := NewSet(MustNew(d1), MustNew(d1, d2, d3))
	if s.MinK() != 1 || s.MaxK() != 3 {
		t.Errorf("MinK=%d MaxK=%d", s.MinK(), s.MaxK())
	}
	empty := NewSet()
	if empty.MinK() != 0 || empty.MaxK() != 0 {
		t.Error("empty set levels should be 0")
	}
}

func TestBorderAndFloor(t *testing.T) {
	// Frequent region from Figure 3's example: solid-circle patterns whose
	// border is {d1d2d3, d1d2**d5, d1**d4}.
	region := NewSet(
		MustNew(d1), MustNew(d2), MustNew(d3), MustNew(d4), MustNew(d5),
		MustNew(d1, d2), MustNew(d2, d3), MustNew(d1, et, d3),
		MustNew(d1, d2, d3),
		MustNew(d1, d2, et, et, d5),
		MustNew(d1, et, et, d4),
	)
	b := Border(region)
	want := NewSet(MustNew(d1, d2, d3), MustNew(d1, d2, et, et, d5), MustNew(d1, et, et, d4))
	if b.Len() != want.Len() {
		t.Fatalf("border size %d, want %d: %v", b.Len(), want.Len(), b.Patterns())
	}
	for _, w := range want.Patterns() {
		if !b.Contains(w) {
			t.Errorf("border missing %v", w)
		}
	}

	f := Floor(region)
	for _, p := range []Pattern{MustNew(d1), MustNew(d2), MustNew(d3), MustNew(d4), MustNew(d5)} {
		if !f.Contains(p) {
			t.Errorf("floor missing %v", p)
		}
	}
	if f.Len() != 5 {
		t.Errorf("floor size %d, want 5", f.Len())
	}
}

func TestAlphabet(t *testing.T) {
	a := GenericAlphabet(5)
	if a.Size() != 5 {
		t.Fatalf("Size=%d", a.Size())
	}
	if a.Name(d3) != "d3" || a.Name(Eternal) != "*" {
		t.Error("Name rendering wrong")
	}
	s, err := a.Symbol("d2")
	if err != nil || s != d2 {
		t.Errorf("Symbol(d2)=%v,%v", s, err)
	}
	if _, err := a.Symbol("zz"); err == nil {
		t.Error("unknown name accepted")
	}
	p, err := a.Parse("d1 * d3")
	if err != nil || !p.Equal(MustNew(d1, et, d3)) {
		t.Errorf("Parse: %v, %v", p, err)
	}
	if _, err := a.Parse("* d1"); err == nil {
		t.Error("Parse accepted leading *")
	}
	if got := a.Format(p); got != "d1 * d3" {
		t.Errorf("Format: %q", got)
	}
	seq, err := a.ParseSeq("d1 d2 d2")
	if err != nil || len(seq) != 3 {
		t.Errorf("ParseSeq: %v, %v", seq, err)
	}
	if _, err := a.ParseSeq("d1 * d2"); err == nil {
		t.Error("ParseSeq accepted eternal symbol")
	}
	if _, err := a.ParseSeq(""); err == nil {
		t.Error("ParseSeq accepted empty")
	}
}

func TestAlphabetConstructionErrors(t *testing.T) {
	if _, err := NewAlphabet(nil); err == nil {
		t.Error("empty alphabet accepted")
	}
	if _, err := NewAlphabet([]string{"a", "a"}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := NewAlphabet([]string{"a", "*"}); err == nil {
		t.Error("reserved name * accepted")
	}
	if _, err := NewAlphabet([]string{""}); err == nil {
		t.Error("empty name accepted")
	}
}

// randomPattern builds a valid random pattern over m symbols with up to
// maxLen positions.
func randomPattern(r *rand.Rand, m, maxLen int) Pattern {
	l := 1 + r.Intn(maxLen)
	p := make(Pattern, l)
	for i := range p {
		if i > 0 && i < l-1 && r.Intn(3) == 0 {
			p[i] = Eternal
		} else {
			p[i] = Symbol(r.Intn(m))
		}
	}
	return p
}

func TestQuickImmediateSubpatternsAreSubpatterns(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		p := randomPattern(r, 6, 8)
		for _, q := range p.ImmediateSubpatterns() {
			if err := q.Validate(); err != nil {
				return false
			}
			if !q.IsSubpatternOf(p) {
				return false
			}
			if q.K() != p.K()-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickSubpatternReflexiveAndAntisymmetricOnLength(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		p := randomPattern(r, 6, 8)
		if !p.IsSubpatternOf(p) {
			return false
		}
		q := randomPattern(r, 6, 8)
		// If both directions hold the patterns must have equal length
		// (subpattern requires len(p) <= len(q)).
		if p.IsSubpatternOf(q) && q.IsSubpatternOf(p) && len(p) != len(q) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickTrimIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		raw := make(Pattern, 1+r.Intn(10))
		for i := range raw {
			if r.Intn(2) == 0 {
				raw[i] = Eternal
			} else {
				raw[i] = Symbol(r.Intn(5))
			}
		}
		t1 := Trim(raw)
		if t1 == nil {
			return true
		}
		t2 := Trim(t1)
		return t1.Equal(t2) && t1.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := NewSet(MustNew(d1), MustNew(d2), MustNew(d3))
	visited := 0
	s.ForEach(func(p Pattern) bool {
		visited++
		return visited < 2
	})
	if visited != 2 {
		t.Errorf("visited %d, want 2 (early stop)", visited)
	}
	total := 0
	s.ForEach(func(Pattern) bool { total++; return true })
	if total != 3 {
		t.Errorf("full visit saw %d", total)
	}
}
