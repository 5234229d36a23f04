package compat

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := New([][]float64{{1, 0}}); err == nil {
		t.Error("non-square matrix accepted")
	}
	if _, err := New([][]float64{{1.5, 0}, {-0.5, 1}}); err == nil {
		t.Error("out-of-range entries accepted")
	}
	if _, err := New([][]float64{{0.5, 0}, {0.4, 1}}); err == nil {
		t.Error("column not summing to 1 accepted")
	}
	if _, err := New([][]float64{{1, 0}, {0, 1}}); err != nil {
		t.Errorf("identity rejected: %v", err)
	}
}

func TestFig2Properties(t *testing.T) {
	c := Fig2()
	if c.Size() != 5 {
		t.Fatalf("Size=%d", c.Size())
	}
	// Paper §3: C(d1,d2)=0.1 but C(d2,d1)=0.05 — compatibility is asymmetric.
	if got := c.C(0, 1); got != 0.1 {
		t.Errorf("C(d1,d2)=%v, want 0.1", got)
	}
	if got := c.C(1, 0); got != 0.05 {
		t.Errorf("C(d2,d1)=%v, want 0.05", got)
	}
	// C(d1,d3)=0: a d1 can never be observed as d3.
	if got := c.C(0, 2); got != 0 {
		t.Errorf("C(d1,d3)=%v, want 0", got)
	}
	// Eternal symbol is fully compatible with everything.
	for o := pattern.Symbol(0); o < 5; o++ {
		if got := c.C(pattern.Eternal, o); got != 1 {
			t.Errorf("C(*,%v)=%v, want 1", o, got)
		}
	}
}

func TestSparseViewsAgreeWithDense(t *testing.T) {
	c := Fig2()
	m := c.Size()
	for j := 0; j < m; j++ {
		sum := 0.0
		for _, e := range c.TrueGiven(pattern.Symbol(j)) {
			if got := c.C(e.Sym, pattern.Symbol(j)); got != e.P {
				t.Errorf("TrueGiven(%d) entry %v disagrees with dense %v", j, e.P, got)
			}
			sum += e.P
		}
		if math.Abs(sum-1) > SumTolerance {
			t.Errorf("observed column %d sparse sum %v", j, sum)
		}
	}
	for i := 0; i < m; i++ {
		for _, e := range c.ObservedGiven(pattern.Symbol(i)) {
			if got := c.C(pattern.Symbol(i), e.Sym); got != e.P {
				t.Errorf("ObservedGiven(%d) entry disagrees with dense", i)
			}
		}
	}
}

func TestIdentity(t *testing.T) {
	c := Identity(4)
	if !c.IsIdentity() {
		t.Error("Identity(4) not detected as identity")
	}
	if Fig2().IsIdentity() {
		t.Error("Fig2 wrongly detected as identity")
	}
	if c.NonZero() != 4 {
		t.Errorf("NonZero=%d, want 4", c.NonZero())
	}
	if got := c.Density(); got != 0.25 {
		t.Errorf("Density=%v, want 0.25", got)
	}
}

func TestUniformNoise(t *testing.T) {
	c, err := UniformNoise(20, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.C(3, 3); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("diagonal=%v, want 0.8", got)
	}
	if got := c.C(3, 4); math.Abs(got-0.2/19) > 1e-12 {
		t.Errorf("off-diagonal=%v, want %v", got, 0.2/19)
	}
	zero, err := UniformNoise(5, 0)
	if err != nil || !zero.IsIdentity() {
		t.Errorf("alpha=0 should give identity: %v", err)
	}
	if _, err := UniformNoise(5, 1); err == nil {
		t.Error("alpha=1 accepted")
	}
	if _, err := UniformNoise(5, -0.1); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := UniformNoise(1, 0.5); err == nil {
		t.Error("m=1 with positive alpha accepted")
	}
}

func TestUniformNoiseExtremeIsUninformative(t *testing.T) {
	// §3: total noise makes every entry 1/m (here approached as alpha→(m-1)/m).
	m := 5
	alpha := float64(m-1) / float64(m)
	c, err := UniformNoise(m, alpha)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if got := c.C(pattern.Symbol(i), pattern.Symbol(j)); math.Abs(got-1/float64(m)) > 1e-12 {
				t.Fatalf("C(%d,%d)=%v, want %v", i, j, got, 1/float64(m))
			}
		}
	}
}

func TestFromChannel(t *testing.T) {
	// Symmetric uniform channel with uniform prior must reproduce the
	// uniform-noise compatibility matrix.
	m, alpha := 6, 0.3
	sub := make([][]float64, m)
	for i := range sub {
		sub[i] = make([]float64, m)
		for j := range sub[i] {
			if i == j {
				sub[i][j] = 1 - alpha
			} else {
				sub[i][j] = alpha / float64(m-1)
			}
		}
	}
	got, err := FromChannel(sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := UniformNoise(m, alpha)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if math.Abs(got.C(pattern.Symbol(i), pattern.Symbol(j))-want.C(pattern.Symbol(i), pattern.Symbol(j))) > 1e-9 {
				t.Fatalf("FromChannel disagrees with UniformNoise at (%d,%d)", i, j)
			}
		}
	}
}

func TestFromChannelSkewedPrior(t *testing.T) {
	// With a skewed prior, the posterior for an ambiguous observation must
	// favor the more likely true symbol.
	sub := [][]float64{
		{0.9, 0.1},
		{0.1, 0.9},
	}
	c, err := FromChannel(sub, []float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Observed symbol 1: P(true=0|obs=1) = .1*.9/(.1*.9+.9*.1) = 0.5
	if got := c.C(0, 1); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("posterior=%v, want 0.5", got)
	}
	// Observed 0 strongly implies true 0.
	if got := c.C(0, 0); got < 0.98 {
		t.Errorf("posterior=%v, want > 0.98", got)
	}
}

func TestFromChannelErrors(t *testing.T) {
	if _, err := FromChannel(nil, nil); err == nil {
		t.Error("empty channel accepted")
	}
	if _, err := FromChannel([][]float64{{1, 0}, {0, 1}}, []float64{1}); err == nil {
		t.Error("mismatched prior accepted")
	}
	if _, err := FromChannel([][]float64{{1}, {1}}, nil); err == nil {
		t.Error("ragged channel accepted")
	}
}

func TestFromChannelZeroColumn(t *testing.T) {
	// An observation no true symbol can produce gets an identity column.
	sub := [][]float64{
		{1, 0},
		{1, 0},
	}
	c, err := FromChannel(sub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.C(1, 1); got != 1 {
		t.Errorf("dead column: C(1,1)=%v, want 1", got)
	}
}

func TestPerturbKeepsColumnsStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, e := range []float64{0.01, 0.05, 0.10, 0.25} {
		p, err := Fig2().Perturb(e, rng)
		if err != nil {
			t.Fatalf("Perturb(%v): %v", e, err)
		}
		for j := 0; j < p.Size(); j++ {
			sum := 0.0
			for i := 0; i < p.Size(); i++ {
				sum += p.C(pattern.Symbol(i), pattern.Symbol(j))
			}
			if math.Abs(sum-1) > SumTolerance {
				t.Errorf("e=%v column %d sums to %v", e, j, sum)
			}
		}
	}
}

func TestPerturbChangesDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	orig := Fig2()
	p, err := orig.Perturb(0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := 0; i < 5; i++ {
		if p.C(pattern.Symbol(i), pattern.Symbol(i)) != orig.C(pattern.Symbol(i), pattern.Symbol(i)) {
			changed = true
		}
	}
	if !changed {
		t.Error("Perturb(0.1) left every diagonal unchanged")
	}
	// Original must be untouched.
	if orig.C(0, 0) != 0.9 {
		t.Error("Perturb mutated the receiver")
	}
}

func TestPerturbIdentityColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Identity columns have nothing to rescale; decreases spread uniformly.
	for trial := 0; trial < 20; trial++ {
		p, err := Identity(3).Perturb(0.5, rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for j := 0; j < 3; j++ {
			sum := 0.0
			for i := 0; i < 3; i++ {
				sum += p.C(pattern.Symbol(i), pattern.Symbol(j))
			}
			if math.Abs(sum-1) > SumTolerance {
				t.Fatalf("column %d sums to %v", j, sum)
			}
		}
	}
}

func TestPerturbErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Fig2().Perturb(-0.1, rng); err == nil {
		t.Error("negative errFrac accepted")
	}
	if _, err := Fig2().Perturb(1.5, rng); err == nil {
		t.Error("errFrac > 1 accepted")
	}
	if _, err := Fig2().Perturb(0.1, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestRoundTripIO(t *testing.T) {
	var buf bytes.Buffer
	orig := Fig2()
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if back.C(pattern.Symbol(i), pattern.Symbol(j)) != orig.C(pattern.Symbol(i), pattern.Symbol(j)) {
				t.Fatalf("round trip changed cell (%d,%d)", i, j)
			}
		}
	}
}

func TestReadFromErrors(t *testing.T) {
	for _, text := range []string{
		"",
		"bogus header",
		"compat 0",
		"compat 2\n1 0\n",          // truncated
		"compat 2\n1 0 0\n0 1 1\n", // wrong field count
		"compat 2\n1 x\n0 1\n",     // unparsable float
		"compat 2\n0.5 0\n0.4 1\n", // invalid column sum
	} {
		if _, err := ReadFrom(bytes.NewReader([]byte(text))); err == nil {
			t.Errorf("ReadFrom(%q) accepted", text)
		}
	}
}

// TestReadFromHugeHeader feeds a header that claims 500 million rows and
// nothing else: ReadFrom must reject it after allocating in proportion to the
// input, not to the header (a 12 GB row table would kill the process).
func TestReadFromHugeHeader(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrom(strings.NewReader("compat 500000000"))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header without rows accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("ReadFrom allocated %d bytes for a 16-byte input", grew)
	}
}

// TestNegativeZeroCellsStoredPositive: a -0 cell, given to New or written
// as "-0" in ReadFrom text, is stored as +0. The match kernels order
// products by their bit patterns, where -0 would rank above every positive
// value.
func TestNegativeZeroCellsStoredPositive(t *testing.T) {
	nz := math.Copysign(0, -1)
	dense, err := New([][]float64{{1, nz, 0.5}, {nz, 1, 0.5}, {0, nz, 0}})
	if err != nil {
		t.Fatal(err)
	}
	text, err := ReadFrom(strings.NewReader("compat 3\n1 -0 0.5\n-0 1 0.5\n0 -0 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Matrix{"New": dense, "ReadFrom": text} {
		for i := 0; i < c.Size(); i++ {
			for j, v := range c.Row(pattern.Symbol(i)) {
				if math.Signbit(v) {
					t.Errorf("%s: cell (%d,%d) is -0", name, i, j)
				}
			}
		}
		if n := len(c.TrueGiven(1)); n != 1 {
			t.Errorf("%s: observed column 1 lists %d non-zero cells, want 1", name, n)
		}
	}
}

func TestDenseIsACopy(t *testing.T) {
	c := Fig2()
	d := c.Dense()
	d[0][0] = 0
	if c.C(0, 0) != 0.9 {
		t.Error("Dense() leaked internal storage")
	}
}

func TestQuickPerturbedColumnsStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(8)
		alpha := r.Float64() * 0.9
		c, err := UniformNoise(m, alpha)
		if err != nil {
			return false
		}
		p, err := c.Perturb(r.Float64(), rng)
		if err != nil {
			return false
		}
		for j := 0; j < m; j++ {
			sum := 0.0
			for i := 0; i < m; i++ {
				v := p.C(pattern.Symbol(i), pattern.Symbol(j))
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > SumTolerance {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
