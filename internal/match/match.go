// Package match implements the match metric of Yang et al. (Definitions
// 3.5–3.7): the conditional probability that an observed segment is a
// (possibly degraded) occurrence of a pattern, aggregated per sequence by a
// sliding-window maximum and per database by averaging.
//
// The package also defines the Measure abstraction that lets the mining
// engines run unchanged under either the match model or the classic support
// model (the identity-matrix special case, §3).
package match

import (
	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// Measure assigns a pattern a value in [0,1] for one sequence; the database
// value of a pattern is the average over all sequences. Match and support
// are both measures; the Apriori property must hold for any implementation
// used with the miners (subpatterns never score lower).
type Measure interface {
	// Value returns the measure of p in seq.
	Value(p pattern.Pattern, seq []pattern.Symbol) float64
	// Name identifies the measure in experiment output.
	Name() string
}

// Match is the paper's match measure backed by a compatibility matrix.
type Match struct {
	C compat.Source
}

// NewMatch returns the match measure over c.
func NewMatch(c compat.Source) Match { return Match{C: c} }

// Name implements Measure.
func (m Match) Name() string { return "match" }

// Value implements Measure; it is Sequence(m.C, p, seq).
func (m Match) Value(p pattern.Pattern, seq []pattern.Symbol) float64 {
	return Sequence(m.C, p, seq)
}

// Segment computes M(P,s) = ∏ C(d_i, s_i) for a segment s of exactly the
// pattern's length (Definition 3.5). Eternal positions contribute factor 1.
// It panics if the lengths differ.
func Segment(c compat.Source, p pattern.Pattern, seg []pattern.Symbol) float64 {
	if len(p) != len(seg) {
		panic("match: segment length differs from pattern length")
	}
	v := 1.0
	for i, d := range p {
		if d.IsEternal() {
			continue
		}
		v *= c.C(d, seg[i])
		if v == 0 {
			return 0
		}
	}
	return v
}

// Sequence computes M(P,S): the maximum of Segment over all len(p)-windows
// of seq (Definition 3.6), 0 when the sequence is shorter than the pattern.
// The inner loop cuts off as soon as a window's running product hits zero
// (Algorithm 4.2's early termination).
func Sequence(c compat.Source, p pattern.Pattern, seq []pattern.Symbol) float64 {
	l := len(p)
	if l == 0 || len(seq) < l {
		return 0
	}
	best := 0.0
	for i := 0; i+l <= len(seq); i++ {
		v := 1.0
		for j, d := range p {
			if d.IsEternal() {
				continue
			}
			v *= c.C(d, seq[i+j])
			if v == 0 || v <= best {
				// The product is non-increasing: once at or below the best
				// seen so far this window cannot win.
				v = 0
				break
			}
		}
		if v > best {
			best = v
			if best == 1 {
				return 1
			}
		}
	}
	return best
}

// DB computes the database value (average over sequences) of each pattern in
// one full scan (Definition 3.7 generalized over a Measure). The result is
// indexed like ps. An empty database yields zeros.
//
// The sums are rebuilt on every attempt of the pass (seqdb.ScanPass), so a
// retrying scanner can re-run a failed pass without double counting. The
// average divides by the number of sequences the pass delivered, not by
// Len(): for scanners whose Len() is stale or an estimate, trusting the
// stream keeps the value exact instead of silently skewing every match.
func DB(db seqdb.Scanner, meas Measure, ps []pattern.Pattern) ([]float64, error) {
	var sums []float64
	var delivered int
	err := seqdb.ScanPass(db, func() (func(id int, seq []pattern.Symbol) error, error) {
		sums = make([]float64, len(ps))
		delivered = 0
		return func(id int, seq []pattern.Symbol) error {
			delivered++
			for i, p := range ps {
				sums[i] += meas.Value(p, seq)
			}
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	if delivered > 0 {
		for i := range sums {
			sums[i] /= float64(delivered)
		}
	}
	return sums, nil
}

// Sample computes the sample value (average over in-memory sample sequences)
// of one pattern under a measure.
func Sample(meas Measure, p pattern.Pattern, sample [][]pattern.Symbol) float64 {
	if len(sample) == 0 {
		return 0
	}
	sum := 0.0
	for _, seq := range sample {
		sum += meas.Value(p, seq)
	}
	return sum / float64(len(sample))
}
