package faults

import (
	"errors"
	"testing"
	"time"

	"repro/internal/compat"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/support"
)

func testDB() *seqdb.MemDB {
	return seqdb.NewMemDB([][]pattern.Symbol{
		{0, 1, 2},
		{3, 1, 0},
		{2, 2},
	})
}

func scanOnce(s *Scanner) ([][]pattern.Symbol, error) {
	var got [][]pattern.Symbol
	err := s.Scan(func(id int, seq []pattern.Symbol) error {
		cp := make([]pattern.Symbol, len(seq))
		copy(cp, seq)
		got = append(got, cp)
		return nil
	})
	return got, err
}

func TestTransientFiresOnceAtExactCoordinates(t *testing.T) {
	s := New(testDB(), TransientOn(2, 1))

	// Attempt 1: clean.
	if _, err := scanOnce(s); err != nil {
		t.Fatalf("attempt 1: %v", err)
	}
	// Attempt 2: fails at sequence 1, marked transient.
	got, err := scanOnce(s)
	if err == nil {
		t.Fatal("attempt 2 did not fail")
	}
	if !seqdb.IsTransient(err) {
		t.Errorf("injected transient fault not classified transient: %v", err)
	}
	if len(got) != 1 {
		t.Errorf("attempt 2 delivered %d sequences before failing, want 1", len(got))
	}
	// Attempt 3: healed.
	if _, err := scanOnce(s); err != nil {
		t.Fatalf("attempt 3 (healed): %v", err)
	}
	if s.Attempts() != 3 {
		t.Errorf("Attempts=%d", s.Attempts())
	}
	if s.Scans() != 2 {
		t.Errorf("Scans=%d, want 2 — the failed attempt must not count", s.Scans())
	}
}

func TestPermanentRepeatsForever(t *testing.T) {
	s := New(testDB(), PermanentOn(2, 0))
	if _, err := scanOnce(s); err != nil {
		t.Fatalf("attempt 1: %v", err)
	}
	for attempt := 2; attempt <= 4; attempt++ {
		_, err := scanOnce(s)
		if err == nil {
			t.Fatalf("attempt %d did not fail", attempt)
		}
		if seqdb.IsTransient(err) {
			t.Errorf("permanent fault classified transient: %v", err)
		}
	}
	if s.Scans() != 1 {
		t.Errorf("Scans=%d", s.Scans())
	}
}

func TestCorruptFlipsOneSymbol(t *testing.T) {
	s := New(testDB(), CorruptAt(1, 1, 2))
	got, err := scanOnce(s)
	if err != nil {
		t.Fatal(err)
	}
	if got[1][2] != 0^1 {
		t.Errorf("seq 1 = %v, want symbol 2 flipped to 1", got[1])
	}
	if got[1][0] != 3 || got[1][1] != 1 {
		t.Errorf("seq 1 = %v, other symbols disturbed", got[1])
	}
	for _, i := range []int{0, 2} {
		want := testDB().Seq(i)
		for j := range want {
			if got[i][j] != want[j] {
				t.Errorf("seq %d corrupted collaterally: %v", i, got[i])
			}
		}
	}
	// The wrapped database is untouched: corruption happens on a copy.
	if s.Inner.(*seqdb.MemDB).Seq(1)[2] != 0 {
		t.Error("fault mutated the underlying database")
	}
}

func TestCorruptPosClamps(t *testing.T) {
	s := New(testDB(), CorruptAt(1, 2, 99))
	got, err := scanOnce(s)
	if err != nil {
		t.Fatal(err)
	}
	if got[2][1] != 2^1 {
		t.Errorf("seq 2 = %v, want last symbol flipped", got[2])
	}
}

func TestCustomErrorOverride(t *testing.T) {
	boom := errors.New("custom boom")
	s := New(testDB(), Fault{Scan: 1, Seq: 0, Kind: Permanent, Err: boom})
	_, err := scanOnce(s)
	if !errors.Is(err, boom) {
		t.Errorf("err=%v, want the override", err)
	}
}

func TestRetryScannerHealsInjectedTransient(t *testing.T) {
	// The composition the pipeline uses: RetryScanner over a faulty store.
	inner := New(testDB(), TransientOn(1, 2))
	r := &seqdb.RetryScanner{Inner: inner, Sleep: func(time.Duration) {}}
	n := 0
	err := seqdb.ScanPass(r, func() (func(id int, seq []pattern.Symbol) error, error) {
		n = 0 // rebuilt per attempt
		return func(int, []pattern.Symbol) error { n++; return nil }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("healed pass saw %d sequences, want 3", n)
	}
	if inner.Attempts() != 2 || r.Scans() != 1 {
		t.Errorf("Attempts=%d Scans=%d, want 2 and 1", inner.Attempts(), r.Scans())
	}
}

// TestMeasurePassSurvivesRetry: a transient fault late in a pass, healed by
// a RetryScanner, must leave match.DB's and support.DB's values equal to a
// fault-free pass's: the retried attempt starts its sums afresh.
func TestMeasurePassSurvivesRetry(t *testing.T) {
	ps := []pattern.Pattern{pattern.MustNew(1), pattern.MustNew(2, 2), pattern.MustNew(1, 0)}
	meas := match.NewMatch(compat.Fig2())
	for name, value := range map[string]func(seqdb.Scanner) ([]float64, error){
		"match":   func(db seqdb.Scanner) ([]float64, error) { return match.DB(db, meas, ps) },
		"support": func(db seqdb.Scanner) ([]float64, error) { return support.DB(db, ps) },
	} {
		want, err := value(testDB())
		if err != nil {
			t.Fatal(err)
		}
		faulty := New(testDB(), TransientOn(1, 2))
		got, err := value(&seqdb.RetryScanner{Inner: faulty, Sleep: func(time.Duration) {}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if faulty.Attempts() != 2 {
			t.Fatalf("%s: %d attempts, want the fault and one retry", name, faulty.Attempts())
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: pattern %v = %v after a retried pass, want %v", name, ps[i], got[i], want[i])
			}
		}
	}
}
