package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// flakyScanner fails every pass after the first `good` ones — simulating a
// disk that dies mid-mining between Phase 1 and Phase 3.
type flakyScanner struct {
	inner *seqdb.MemDB
	good  int
	done  int
	err   error
}

func (f *flakyScanner) Scan(fn func(int, []pattern.Symbol) error) error {
	if f.done >= f.good {
		return f.err
	}
	f.done++
	return f.inner.Scan(fn)
}

func (f *flakyScanner) Len() int    { return f.inner.Len() }
func (f *flakyScanner) Scans() int  { return f.inner.Scans() }
func (f *flakyScanner) ResetScans() { f.inner.ResetScans() }

func flakyWorld(t *testing.T) (*seqdb.MemDB, *compat.Matrix) {
	t.Helper()
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	return db, c
}

func TestMineFailsCleanlyWhenPhase1ScanFails(t *testing.T) {
	db, c := flakyWorld(t)
	boom := errors.New("disk gone")
	flaky := &flakyScanner{inner: db, good: 0, err: boom}
	_, err := Mine(flaky, c, Config{
		MinMatch: 0.1, SampleSize: 10, MaxLen: 3, Rng: rand.New(rand.NewSource(1)),
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the scan failure", err)
	}
}

func TestMineFailsCleanlyWhenProbeScanFails(t *testing.T) {
	db, c := flakyWorld(t)
	boom := errors.New("disk gone")
	// Phase 1 succeeds; the first Phase 3 probe fails. A tiny sample
	// guarantees ambiguous patterns exist, so Phase 3 must scan.
	flaky := &flakyScanner{inner: db, good: 1, err: boom}
	_, err := Mine(flaky, c, Config{
		MinMatch: 0.1, SampleSize: 10, MaxLen: 3, MemBudget: 5,
		Rng: rand.New(rand.NewSource(2)),
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the probe failure", err)
	}
}

func TestExhaustiveFailsCleanlyOnScanFailure(t *testing.T) {
	db, c := flakyWorld(t)
	boom := errors.New("disk gone")
	flaky := &flakyScanner{inner: db, good: 1, err: boom} // dies at level 2
	_, err := Exhaustive(flaky, c, 0.1, miner.Options{MaxLen: 3})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the scan failure", err)
	}
}

func TestMineAbortedSequenceCallback(t *testing.T) {
	// A callback error mid-pass must not be double-counted as a scan.
	db, c := flakyWorld(t)
	db.ResetScans()
	boom := errors.New("row error")
	failing := &rowFailScanner{inner: db, failAt: 3, err: boom}
	_, err := Mine(failing, c, Config{
		MinMatch: 0.1, SampleSize: 10, MaxLen: 3, Rng: rand.New(rand.NewSource(4)),
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	if db.Scans() != 0 {
		t.Errorf("aborted pass counted: %d", db.Scans())
	}
}

type rowFailScanner struct {
	inner  *seqdb.MemDB
	failAt int
	err    error
}

func (r *rowFailScanner) Scan(fn func(int, []pattern.Symbol) error) error {
	return r.inner.Scan(func(id int, seq []pattern.Symbol) error {
		if id == r.failAt {
			return r.err
		}
		return fn(id, seq)
	})
}

func (r *rowFailScanner) Len() int    { return r.inner.Len() }
func (r *rowFailScanner) Scans() int  { return r.inner.Scans() }
func (r *rowFailScanner) ResetScans() { r.inner.ResetScans() }

// TestMineRejectsSymbolOutsideAlphabet: a database holding symbol 7, mined
// with a 5-symbol matrix, fails Phase 1 with a *PhaseError whose cause is
// the accumulator's *match.AlphabetError and whose message names the
// sequence, the symbol and its position, instead of panicking.
func TestMineRejectsSymbolOutsideAlphabet(t *testing.T) {
	db := seqdb.NewMemDB([][]pattern.Symbol{{0, 1, 2}, {3, 4}, {1, 7, 2}, {0}})
	_, err := Mine(db, compat.Identity(5), Config{
		MinMatch: 0.1, SampleSize: 4, MaxLen: 3, Rng: rand.New(rand.NewSource(1)),
	})
	var pe *PhaseError
	var ae *match.AlphabetError
	if !errors.As(err, &pe) || pe.Phase != 1 || !errors.As(err, &ae) || ae.Symbol != 7 || ae.Pos != 1 {
		t.Fatalf("err=%v, want a phase 1 error rejecting symbol 7 at position 1", err)
	}
	if want := "core: phase 1: sequence 2: match: symbol 7 at position 1 is outside the alphabet of 5 symbols"; err.Error() != want {
		t.Fatalf("err=%q, want %q", err, want)
	}
}
