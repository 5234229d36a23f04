package oracle

import (
	"math"
	"testing"

	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/testutil"
)

func mustMatrix(t *testing.T, dense [][]float64) *compat.Matrix {
	t.Helper()
	c, err := compat.New(dense)
	if err != nil {
		t.Fatalf("matrix: %v", err)
	}
	return c
}

// testMatrix2 is a 2-symbol column-stochastic matrix with no zero cells:
// C(0,0)=0.9 C(1,0)=0.1, C(0,1)=0.2 C(1,1)=0.8.
func testMatrix2(t *testing.T) *compat.Matrix {
	return mustMatrix(t, [][]float64{{0.9, 0.2}, {0.1, 0.8}})
}

func TestSegmentHandComputed(t *testing.T) {
	c := testMatrix2(t)
	et := pattern.Eternal
	cases := []struct {
		name string
		p    pattern.Pattern
		seg  []pattern.Symbol
		want float64
	}{
		{"single-exact", pattern.MustNew(0), []pattern.Symbol{0}, 0.9},
		{"single-cross", pattern.MustNew(0), []pattern.Symbol{1}, 0.2},
		{"product", pattern.MustNew(0, 1), []pattern.Symbol{0, 1}, 0.9 * 0.8},
		{"eternal-skipped", pattern.MustNew(0, et, 1), []pattern.Symbol{1, 0, 1}, 0.2 * 0.8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Segment(c, tc.p, tc.seg); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Segment(%v, %v) = %v, want %v", tc.p, tc.seg, got, tc.want)
			}
		})
	}
}

func TestSegmentZeroFactorShortCircuits(t *testing.T) {
	// C(0,1) = 0: any segment aligning pattern symbol 0 with observed 1 is 0.
	c := mustMatrix(t, [][]float64{{0.9, 0}, {0.1, 1}})
	if got := Segment(c, pattern.MustNew(0, 1), []pattern.Symbol{1, 1}); got != 0 {
		t.Errorf("zero factor gave %v, want exactly 0", got)
	}
}

func TestSegmentIdentityIsExact(t *testing.T) {
	// Under the identity matrix a matching segment must be exactly 1.0 — no
	// log-space round trip may introduce an ulp of drift, or the support
	// degeneration (Claim in §3) breaks.
	id := compat.Identity(4)
	p := pattern.MustNew(1, pattern.Eternal, 3)
	if got := Segment(id, p, []pattern.Symbol{1, 0, 3}); got != 1.0 {
		t.Errorf("identity match = %v, want exactly 1", got)
	}
	if got := Segment(id, p, []pattern.Symbol{1, 0, 2}); got != 0 {
		t.Errorf("identity mismatch = %v, want exactly 0", got)
	}
}

func TestSegmentLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Segment(testMatrix2(t), pattern.MustNew(0, 1), []pattern.Symbol{0})
}

func TestSequenceHandComputed(t *testing.T) {
	c := testMatrix2(t)
	p := pattern.MustNew(0, 1)
	// Windows of {1,0,1}: {1,0} -> 0.2*0.1 = 0.02; {0,1} -> 0.9*0.8 = 0.72.
	if got, want := Sequence(c, p, []pattern.Symbol{1, 0, 1}), 0.72; math.Abs(got-want) > 1e-12 {
		t.Errorf("Sequence = %v, want %v", got, want)
	}
	if got := Sequence(c, p, []pattern.Symbol{0}); got != 0 {
		t.Errorf("sequence shorter than pattern gave %v, want 0", got)
	}
	if got := Sequence(c, nil, []pattern.Symbol{0, 1}); got != 0 {
		t.Errorf("empty pattern gave %v, want 0", got)
	}
}

func TestDBMatchAverage(t *testing.T) {
	c := testMatrix2(t)
	p := pattern.MustNew(0)
	db := [][]pattern.Symbol{{0}, {1}}
	if got, want := DBMatch(c, p, db), (0.9+0.2)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("DBMatch = %v, want %v", got, want)
	}
	if got := DBMatch(c, p, nil); got != 0 {
		t.Errorf("empty DB gave %v, want 0", got)
	}
}

func TestOccursAndDBSupport(t *testing.T) {
	et := pattern.Eternal
	p := pattern.MustNew(0, et, 1)
	if !Occurs(p, []pattern.Symbol{2, 0, 2, 1, 2}) {
		t.Error("occurrence at offset 1 missed")
	}
	if Occurs(p, []pattern.Symbol{0, 1, 0}) {
		t.Error("false occurrence (gap position must be free, ends must align)")
	}
	if Occurs(p, []pattern.Symbol{0, 1}) {
		t.Error("occurrence in a too-short sequence")
	}
	db := [][]pattern.Symbol{{0, 2, 1}, {1, 0, 2}, {0, 0, 1}}
	if got, want := DBSupport(p, db), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("DBSupport = %v, want %v", got, want)
	}
}

func TestEnumerateSmallSpace(t *testing.T) {
	// m=2, maxLen=3, maxGap=1: lengths 1 (2), 2 (4), 3 fully concrete (8),
	// 3 with one internal gap (4) = 18 patterns.
	space := Enumerate(2, 3, 1)
	if len(space) != 18 {
		t.Fatalf("enumerated %d patterns, want 18: %v", len(space), space)
	}
}

func TestEnumerateValidityAndUniqueness(t *testing.T) {
	const m, maxLen, maxGap = 3, 4, 2
	space := Enumerate(m, maxLen, maxGap)
	seen := make(map[string]bool, len(space))
	for _, p := range space {
		if seen[p.Key()] {
			t.Fatalf("duplicate pattern %v", p)
		}
		seen[p.Key()] = true
		if len(p) == 0 || len(p) > maxLen {
			t.Fatalf("pattern %v violates length bound", p)
		}
		if p[0].IsEternal() || p[len(p)-1].IsEternal() {
			t.Fatalf("pattern %v has a leading or trailing eternal symbol", p)
		}
		if p.MaxGapRun() > maxGap {
			t.Fatalf("pattern %v violates gap bound", p)
		}
	}
	// Spot-check membership of boundary shapes.
	for _, want := range []pattern.Pattern{
		pattern.MustNew(2),
		pattern.MustNew(0, pattern.Eternal, pattern.Eternal, 1),
		pattern.MustNew(2, 2, 2, 2),
	} {
		if !seen[want.Key()] {
			t.Errorf("space is missing %v", want)
		}
	}
}

// TestOracleAgreesWithMatchKernels cross-checks the log-space oracle against
// internal/match's direct-product implementations (the interpreted Sequence,
// the Measure interface, and the compiled matcher) on random inputs.
func TestOracleAgreesWithMatchKernels(t *testing.T) {
	rng := testutil.Rng(t)
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(5)
		c := randomMatrix(rng, m)
		space := Enumerate(m, 4, 2)
		p := space[rng.Intn(len(space))]
		seq := make([]pattern.Symbol, rng.Intn(16))
		for i := range seq {
			seq[i] = pattern.Symbol(rng.Intn(m))
		}
		want := Sequence(c, p, seq)
		if got := match.Sequence(c, p, seq); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: match.Sequence(%v, %v) = %v, oracle %v", trial, p, seq, got, want)
		}
		if got := match.NewMatch(c).Value(p, seq); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Match.Value(%v, %v) = %v, oracle %v", trial, p, seq, got, want)
		}
		cp, err := match.Compile(c, p)
		if err != nil {
			t.Fatalf("trial %d: compile %v: %v", trial, p, err)
		}
		if got := cp.Match(seq); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Compiled.Match(%v, %v) = %v, oracle %v", trial, p, seq, got, want)
		}
	}
}
