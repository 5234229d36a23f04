package oracle

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/maxminer"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// TestCommittedSeedsSubset keeps a fast slice of the conformance corpus in
// the package's own test run; cmd/lspverify replays the whole corpus in CI.
func TestCommittedSeedsSubset(t *testing.T) {
	for _, seed := range CommittedSeeds[:4] {
		if d := CheckSeed(seed, Battery()); d != nil {
			t.Fatalf("committed seed %d diverged:\n%s", seed, d)
		}
	}
}

// corruptEngine is a deliberately buggy system under test: Max-Miner driven
// by a valuer that inflates every database match by 10% — the planted
// match-kernel bug the differential driver must be able to catch.
func corruptEngine() Engine {
	return Engine{Name: "planted-bug", Ref: RefMatch, Mine: func(cs *Case) (*pattern.Set, error) {
		base := miner.MatchDBValuer(seqdb.NewMemDB(cs.DB), cs.C)
		inflating := func(ps []pattern.Pattern) ([]float64, error) {
			vals, err := base(ps)
			if err != nil {
				return nil, err
			}
			for i := range vals {
				vals[i] = math.Min(1, vals[i]*1.1)
			}
			return vals, nil
		}
		res, err := maxminer.Mine(cs.C.Size(), inflating, cs.MinMatch, caseOpts(cs))
		if err != nil {
			return nil, err
		}
		return res.Frequent, nil
	}}
}

// TestDifferentialDetectsPlantedBug is the harness's own acceptance test:
// the driver must flag the inflated valuer within a few seeds, report a
// reproducing seed, and hand back a minimized case that still diverges.
func TestDifferentialDetectsPlantedBug(t *testing.T) {
	engines := []Engine{corruptEngine()}
	var d *Divergence
	var seed int64
	for s := int64(1); s <= 20 && d == nil; s++ {
		seed = s
		d = CheckSeed(s, engines)
	}
	if d == nil {
		t.Fatal("a 10% match inflation went undetected across 20 seeds")
	}
	if d.Seed != seed {
		t.Errorf("divergence reports seed %d, found on seed %d", d.Seed, seed)
	}
	if len(d.Extra) == 0 {
		t.Errorf("inflation must surface as extra frequent patterns, got missing=%v extra=%v", d.Missing, d.Extra)
	}
	for _, p := range d.Extra {
		if v := d.Values[p.Key()]; v >= d.Case.MinMatch {
			t.Errorf("extra pattern %v has oracle value %v >= min_match %v", p, v, d.Case.MinMatch)
		}
	}
	if d.Case == nil || d.Original == nil {
		t.Fatalf("divergence lacks a case: %+v", d)
	}
	// The minimized case must still diverge and must not have grown.
	if CheckCase(d.Case, engines) == nil {
		t.Error("minimized case no longer reproduces the divergence")
	}
	if len(d.Case.DB) > len(d.Original.DB) {
		t.Errorf("minimization grew the database: %d -> %d sequences", len(d.Original.DB), len(d.Case.DB))
	}
	out := d.String()
	for _, want := range []string{
		"DIVERGENCE",
		"engine=planted-bug",
		fmt.Sprintf("seed=%d", seed),
		fmt.Sprintf("reproduce: go run ./cmd/lspverify -seed %d", seed),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("repro report lacks %q:\n%s", want, out)
		}
	}
}

func TestMinimizeShrinksToFixpoint(t *testing.T) {
	engines := []Engine{corruptEngine()}
	for s := int64(1); s <= 20; s++ {
		cs := GenCase(s)
		if CheckCase(cs, engines) == nil {
			continue
		}
		min := Minimize(cs, engines)
		if CheckCase(min, engines) == nil {
			t.Fatalf("seed %d: minimized case passes", s)
		}
		// Fixpoint: dropping any single remaining sequence loses the bug
		// (unless only one sequence is left, which is minimal by definition).
		for i := range min.DB {
			if len(min.DB) == 1 {
				break
			}
			trial := min.clone()
			trial.DB = append(trial.DB[:i], trial.DB[i+1:]...)
			if CheckCase(trial, engines) != nil {
				t.Fatalf("seed %d: sequence %d is droppable, minimization stopped early", s, i)
			}
		}
		return
	}
	t.Fatal("no diverging seed found for the planted bug")
}

func TestVerifyReportsFailuresAndSummary(t *testing.T) {
	var buf bytes.Buffer
	if n := Verify(&buf, VerifyOptions{
		Seeds:      []int64{1, 2},
		Engines:    []Engine{ExhaustiveEngine()},
		Properties: true,
		Verbose:    true,
	}); n != 0 {
		t.Fatalf("clean engine reported %d failures:\n%s", n, buf.String())
	}
	for _, want := range []string{"ok seed=1", "ok seed=2", "lspverify: 2 seeds, 1 engines, 0 failures"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("verbose output lacks %q:\n%s", want, buf.String())
		}
	}

	buf.Reset()
	seeds := make([]int64, 10)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	n := Verify(&buf, VerifyOptions{Seeds: seeds, Engines: []Engine{corruptEngine()}})
	if n == 0 {
		t.Fatalf("planted bug survived Verify:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "DIVERGENCE") {
		t.Errorf("failure output lacks a divergence report:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("%d failures", n)) {
		t.Errorf("summary does not carry the failure count %d:\n%s", n, buf.String())
	}
}

// TestCommittedSeedsReachBothEngines: the committed corpus (which every
// lspverify run replays) must exercise both engines the Phase 2 rule can
// pick — GenCase's short sequences mostly fall below its threshold — and
// Verify must report the split.
func TestCommittedSeedsReachBothEngines(t *testing.T) {
	var buf bytes.Buffer
	if n := Verify(&buf, VerifyOptions{Seeds: CommittedSeeds, Engines: []Engine{ExhaustiveEngine()}}); n != 0 {
		t.Fatalf("%d failures:\n%s", n, buf.String())
	}
	var levelwise, growth int
	for _, line := range strings.Split(buf.String(), "\n") {
		if _, err := fmt.Sscanf(line, "lspverify: phase 2 rule sent %d cases to levelwise, %d to growth", &levelwise, &growth); err == nil {
			break
		}
	}
	if levelwise == 0 || growth == 0 || levelwise+growth != len(CommittedSeeds) {
		t.Fatalf("rule split %d levelwise / %d growth over %d committed seeds:\n%s", levelwise, growth, len(CommittedSeeds), buf.String())
	}
}

func TestGenCaseDeterministic(t *testing.T) {
	a, b := GenCase(42), GenCase(42)
	if a.MinMatch != b.MinMatch || a.MaxLen != b.MaxLen || a.MaxGap != b.MaxGap ||
		a.Delta != b.Delta || a.MemBudget != b.MemBudget || len(a.DB) != len(b.DB) {
		t.Fatalf("GenCase is not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.DB {
		if len(a.DB[i]) != len(b.DB[i]) {
			t.Fatalf("sequence %d differs", i)
		}
		for j := range a.DB[i] {
			if a.DB[i][j] != b.DB[i][j] {
				t.Fatalf("sequence %d symbol %d differs", i, j)
			}
		}
	}
}
