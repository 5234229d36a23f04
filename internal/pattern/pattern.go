// Package pattern implements sequential patterns over a finite alphabet with
// the eternal ("don't care") symbol *, the sub-/super-pattern lattice of
// Yang et al. (SIGMOD 2002), and the borders the mining phases hand over.
//
// A pattern is an ordered list of positions; each position holds either a
// concrete symbol of the alphabet Θ or the eternal symbol * that matches any
// single observed symbol. Following Definition 3.2 of the paper, a valid
// pattern never starts or ends with *. The lattice level of a pattern is its
// number of non-eternal symbols (a "k-pattern").
package pattern

import (
	"fmt"
	"strconv"
	"strings"
)

// Symbol identifies one symbol of the alphabet Θ. Concrete symbols are the
// integers 0..m-1; the eternal symbol is the negative sentinel Eternal.
type Symbol int32

// Eternal is the "don't care" position marker (the paper's * symbol). It is
// fully compatible with every observed symbol: C(*, d) = 1 for all d.
const Eternal Symbol = -1

// IsEternal reports whether s is the don't-care symbol.
func (s Symbol) IsEternal() bool { return s < 0 }

// Pattern is an ordered list of positions. The zero value is the empty
// pattern, which is not valid; construct patterns with New or Extend and
// check them with Validate.
type Pattern []Symbol

// New builds a pattern from the given positions and validates it.
func New(positions ...Symbol) (Pattern, error) {
	p := Pattern(positions)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p.Clone(), nil
}

// MustNew is New but panics on invalid input. It is intended for tests and
// package-level literals where the pattern is known to be well formed.
func MustNew(positions ...Symbol) Pattern {
	p, err := New(positions...)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate checks Definition 3.2: the pattern is non-empty, its first and
// last positions are non-eternal, and every concrete symbol is non-negative.
func (p Pattern) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("pattern: empty")
	}
	if p[0].IsEternal() {
		return fmt.Errorf("pattern: first position is eternal")
	}
	if p[len(p)-1].IsEternal() {
		return fmt.Errorf("pattern: last position is eternal")
	}
	for i, s := range p {
		if s.IsEternal() && s != Eternal {
			return fmt.Errorf("pattern: position %d holds invalid symbol %d", i, s)
		}
	}
	return nil
}

// Len returns the total length l of the pattern, counting eternal positions.
func (p Pattern) Len() int { return len(p) }

// K returns the number of non-eternal symbols (the lattice level of the
// pattern; a pattern with K()==k is a "k-pattern" in the paper).
func (p Pattern) K() int {
	k := 0
	for _, s := range p {
		if !s.IsEternal() {
			k++
		}
	}
	return k
}

// Clone returns an independent copy of p.
func (p Pattern) Clone() Pattern {
	q := make(Pattern, len(p))
	copy(q, p)
	return q
}

// Equal reports position-wise equality.
func (p Pattern) Equal(q Pattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Key returns a compact canonical representation usable as a map key. Two
// patterns have the same Key iff they are Equal.
func (p Pattern) Key() string {
	return string(p.AppendKey(make([]byte, 0, len(p)*3)))
}

// AppendKey appends p's Key to buf and returns the extended buffer.
func (p Pattern) AppendKey(buf []byte) []byte {
	for i, s := range p {
		if i > 0 {
			buf = append(buf, ',')
		}
		if s.IsEternal() {
			buf = append(buf, '*')
		} else {
			buf = strconv.AppendInt(buf, int64(int32(s)), 10)
		}
	}
	return buf
}

// ParseKey reverses Key: it rebuilds the pattern from its canonical
// representation. Only "*" stands for the eternal symbol; every negative
// number is rejected. The result is not otherwise validated; call Validate
// if needed.
func ParseKey(key string) (Pattern, error) {
	if key == "" {
		return nil, fmt.Errorf("pattern: empty key")
	}
	parts := strings.Split(key, ",")
	p := make(Pattern, len(parts))
	for i, part := range parts {
		if part == "*" {
			p[i] = Eternal
			continue
		}
		v, err := strconv.ParseInt(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("pattern: bad key %q: %w", key, err)
		}
		if v < 0 {
			// Only "*" spells the eternal symbol; a negative number would
			// parse to a symbol Key renders as "*" and not round-trip.
			return nil, fmt.Errorf("pattern: bad key %q: negative symbol %d", key, v)
		}
		p[i] = Symbol(v)
	}
	return p, nil
}

// String renders the pattern with d<i> names, e.g. "d1 * d3". Positions are
// 1-based in the rendering to match the paper's examples.
func (p Pattern) String() string {
	var b strings.Builder
	for i, s := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		if s.IsEternal() {
			b.WriteByte('*')
		} else {
			fmt.Fprintf(&b, "d%d", int32(s)+1)
		}
	}
	return b.String()
}

// Symbols returns the distinct concrete symbols used by the pattern.
func (p Pattern) Symbols() []Symbol {
	seen := make(map[Symbol]struct{}, len(p))
	out := make([]Symbol, 0, len(p))
	for _, s := range p {
		if s.IsEternal() {
			continue
		}
		if _, ok := seen[s]; ok {
			continue
		}
		seen[s] = struct{}{}
		out = append(out, s)
	}
	return out
}

// Trim strips leading and trailing eternal positions, returning a valid
// pattern (or nil if p contains no concrete symbol).
func Trim(p Pattern) Pattern {
	lo, hi := 0, len(p)
	for lo < hi && p[lo].IsEternal() {
		lo++
	}
	for hi > lo && p[hi-1].IsEternal() {
		hi--
	}
	if lo == hi {
		return nil
	}
	return p[lo:hi].Clone()
}

// Extend returns p extended on the right by gap eternal positions followed
// by the concrete symbol d. gap must be >= 0 and d must be concrete.
func Extend(p Pattern, gap int, d Symbol) Pattern {
	if gap < 0 {
		panic("pattern: negative gap")
	}
	if d.IsEternal() {
		panic("pattern: cannot extend with eternal symbol")
	}
	q := make(Pattern, 0, len(p)+gap+1)
	q = append(q, p...)
	for i := 0; i < gap; i++ {
		q = append(q, Eternal)
	}
	return append(q, d)
}

// IsSubpatternOf implements Definition 3.3: p is a subpattern of q if there
// is an offset j such that every position of p either is eternal or equals
// the corresponding position of q. Every pattern is a subpattern of itself.
func (p Pattern) IsSubpatternOf(q Pattern) bool {
	if len(p) > len(q) {
		return false
	}
	for j := 0; j+len(p) <= len(q); j++ {
		ok := true
		for i := range p {
			if p[i] != Eternal && p[i] != q[i+j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// IsProperSubpatternOf reports p ⊂ q (subpattern but not equal).
func (p Pattern) IsProperSubpatternOf(q Pattern) bool {
	return !p.Equal(q) && p.IsSubpatternOf(q)
}

// MaxGapRun returns the longest run of eternal symbols in p.
func (p Pattern) MaxGapRun() int {
	run, longest := 0, 0
	for _, s := range p {
		if s.IsEternal() {
			run++
			longest = max(longest, run)
		} else {
			run = 0
		}
	}
	return longest
}

// ImmediateSubpatterns returns the patterns obtained by replacing exactly one
// non-eternal position of p with * and trimming the result (Definition 3.3's
// covering relation, one lattice level down). Results are deduplicated; a
// 1-pattern has no immediate subpatterns.
func (p Pattern) ImmediateSubpatterns() []Pattern {
	if p.K() <= 1 {
		return nil
	}
	seen := make(map[string]struct{})
	var out []Pattern
	for i, s := range p {
		if s.IsEternal() {
			continue
		}
		q := p.Clone()
		q[i] = Eternal
		q = Trim(q)
		if q == nil {
			continue
		}
		k := q.Key()
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, q)
	}
	return out
}
