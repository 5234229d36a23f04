// Package support implements the classic support model as a match.Measure:
// a pattern's value in a sequence is 1 if some window matches it exactly
// (eternal positions match any symbol) and 0 otherwise; the database value
// is the fraction of sequences containing the pattern.
//
// Under a noise-free (identity) compatibility matrix the match metric
// degenerates to exactly this measure (§3), which the tests verify.
package support

import (
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// Support is the exact-occurrence measure. The zero value is ready to use.
type Support struct{}

// Name implements match.Measure.
func (Support) Name() string { return "support" }

// Value implements match.Measure: 1 if p occurs in seq, else 0.
func (Support) Value(p pattern.Pattern, seq []pattern.Symbol) float64 {
	if Occurs(p, seq) {
		return 1
	}
	return 0
}

// Occurs reports whether some window of seq matches p exactly, with eternal
// positions matching any symbol.
func Occurs(p pattern.Pattern, seq []pattern.Symbol) bool {
	l := len(p)
	if l == 0 || len(seq) < l {
		return false
	}
	for i := 0; i+l <= len(seq); i++ {
		ok := true
		for j, d := range p {
			if !d.IsEternal() && seq[i+j] != d {
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

// DB computes the support of each pattern in one full scan (match.DB).
func DB(db seqdb.Scanner, ps []pattern.Pattern) ([]float64, error) {
	return match.DB(db, Support{}, ps)
}
