package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/pattern"
	"repro/internal/seqdb"
)

// faultWorld builds the standard small fault-test setup: a noisy planted-motif
// database whose tiny sample guarantees ambiguous patterns, so Phase 3 must
// probe the full database (scan attempts >= 2).
func faultConfig(seed int64) Config {
	return Config{
		MinMatch: 0.1, SampleSize: 10, MaxLen: 3, MemBudget: 5,
		Finalizer: BorderCollapsing,
		Rng:       rand.New(rand.NewSource(seed)),
	}
}

func TestMineSurvivesTransientFaultUnchanged(t *testing.T) {
	// Fault-free baseline.
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	want, err := MineContext(context.Background(), db, c, faultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if want.Phase3 == nil || want.Phase3.Scans == 0 {
		t.Fatal("world does not force Phase 3 scans; the fault would never fire")
	}

	// Same world, same seed, but scan attempt 2 (the first Phase 3 probe)
	// dies with a transient error at sequence 5 and heals on the retry.
	db2, c2 := noisyProteinDB(t, 77, 60, 0.2)
	faulty := faults.New(db2, faults.TransientOn(2, 5))
	retry := &seqdb.RetryScanner{Inner: faulty, Sleep: func(time.Duration) {}}
	got, err := MineContext(context.Background(), retry, c2, faultConfig(2))
	if err != nil {
		t.Fatalf("transient fault not healed: %v", err)
	}

	setsEqual(t, got.Frequent, want.Frequent, "Frequent")
	setsEqual(t, got.Border, want.Border, "Border")
	if got.Scans != want.Scans {
		t.Errorf("Scans=%d, want %d — a healed transient must not change the scan count", got.Scans, want.Scans)
	}
	if db2.Scans() != db.Scans() {
		t.Errorf("underlying scans %d vs %d", db2.Scans(), db.Scans())
	}
	if faulty.Attempts() != db2.Scans()+1 {
		t.Errorf("Attempts=%d, want %d (completed passes + the failed one)", faulty.Attempts(), db2.Scans()+1)
	}
	if got.ScanStats.Retries != 1 || got.ScanStats.Transient != 1 || got.ScanStats.Permanent != 0 {
		t.Errorf("ScanStats=%+v, want exactly one retried transient", got.ScanStats)
	}
}

func TestMineSurvivesTransientFaultParallelProbe(t *testing.T) {
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	want, err := MineContext(context.Background(), db, c, faultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	db2, c2 := noisyProteinDB(t, 77, 60, 0.2)
	retry := &seqdb.RetryScanner{
		Inner: faults.New(db2, faults.TransientOn(2, 5)),
		Sleep: func(time.Duration) {},
	}
	cfg := faultConfig(2)
	cfg.Workers = 2
	got, err := MineContext(context.Background(), retry, c2, cfg)
	if err != nil {
		t.Fatalf("transient fault not healed under parallel probes: %v", err)
	}
	setsEqual(t, got.Frequent, want.Frequent, "Frequent(parallel)")
	setsEqual(t, got.Border, want.Border, "Border(parallel)")
	if got.Scans != want.Scans {
		t.Errorf("Scans=%d, want %d", got.Scans, want.Scans)
	}
}

func TestMinePermanentFaultSurfacesWithPhase(t *testing.T) {
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	retry := &seqdb.RetryScanner{
		Inner: faults.New(db, faults.PermanentOn(2, 5)),
		Sleep: func(time.Duration) {},
	}
	res, err := MineContext(context.Background(), retry, c, faultConfig(2))
	if err == nil {
		t.Fatal("permanent fault did not fail the run")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("err=%v, want *PhaseError", err)
	}
	if pe.Phase != 3 {
		t.Errorf("Phase=%d, want 3", pe.Phase)
	}
	if !strings.Contains(err.Error(), "injected permanent failure") {
		t.Errorf("err=%v does not wrap the injected fault", err)
	}
	if st := retry.ScanStats(); st.Permanent != 1 || st.Retries != 0 {
		t.Errorf("ScanStats=%+v — permanent errors must not be retried", st)
	}
	if res == nil || res.PhaseReached != 3 {
		t.Errorf("partial result=%+v, want PhaseReached=3", res)
	}
	if res != nil && res.Phase2 == nil {
		t.Error("partial result lost the completed Phase 2 output")
	}
}

func TestMineTransientFaultExhaustsRetries(t *testing.T) {
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	// Repeat:true keeps the transient fault firing on every attempt, so
	// even a retrying scanner runs out of patience.
	retry := &seqdb.RetryScanner{
		Inner:      faults.New(db, faults.Fault{Scan: 2, Seq: 5, Kind: faults.Transient, Repeat: true}),
		MaxRetries: 2,
		Sleep:      func(time.Duration) {},
	}
	_, err := MineContext(context.Background(), retry, c, faultConfig(2))
	if err == nil {
		t.Fatal("unhealable transient did not fail the run")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) || pe.Phase != 3 {
		t.Fatalf("err=%v, want a phase-3 PhaseError", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("err=%v does not report retry exhaustion", err)
	}
}

// cancelScanner cancels a context at exact (attempt, sequence) coordinates.
type cancelScanner struct {
	*seqdb.MemDB
	cancel  context.CancelFunc
	scan    int // 1-based attempt to cancel on
	seq     int
	attempt int
}

func (s *cancelScanner) Scan(fn func(int, []pattern.Symbol) error) error {
	return s.ScanContext(nil, fn)
}

func (s *cancelScanner) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	s.attempt++
	cur := s.attempt
	return s.MemDB.ScanContext(ctx, func(id int, seq []pattern.Symbol) error {
		if cur == s.scan && id == s.seq {
			s.cancel()
		}
		return fn(id, seq)
	})
}

func TestMineCancellationAbortsPhase1WithinOneSequence(t *testing.T) {
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	sc := &cancelScanner{MemDB: db, cancel: cancel, scan: 1, seq: 5}
	res, err := MineContext(ctx, sc, c, faultConfig(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	var pe *PhaseError
	if !errors.As(err, &pe) || pe.Phase != 1 {
		t.Fatalf("err=%v, want a phase-1 PhaseError", err)
	}
	if db.Scans() != 0 {
		t.Errorf("Scans=%d — the aborted pass must not count", db.Scans())
	}
	if res == nil || res.PhaseReached != 1 {
		t.Errorf("partial result=%+v, want PhaseReached=1", res)
	}
}

func TestMineCancellationAbortsPhase3(t *testing.T) {
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	sc := &cancelScanner{MemDB: db, cancel: cancel, scan: 2, seq: 5}
	res, err := MineContext(ctx, sc, c, faultConfig(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	var pe *PhaseError
	if !errors.As(err, &pe) || pe.Phase != 3 {
		t.Fatalf("err=%v, want a phase-3 PhaseError", err)
	}
	if db.Scans() != 1 {
		t.Errorf("Scans=%d, want 1 — Phase 1 completed, the probe aborted", db.Scans())
	}
	if res == nil || res.PhaseReached != 3 || res.Phase2 == nil {
		t.Errorf("partial result=%+v, want PhaseReached=3 with Phase 2 output", res)
	}
}

func TestMineCancellationNotRetried(t *testing.T) {
	// Cancellation through a RetryScanner must abort immediately, never
	// burn retry attempts.
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	sc := &cancelScanner{MemDB: db, cancel: cancel, scan: 2, seq: 5}
	retry := &seqdb.RetryScanner{Inner: sc, Sleep: func(time.Duration) { t.Error("slept on cancellation") }}
	_, err := MineContext(ctx, retry, c, faultConfig(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if st := retry.ScanStats(); st.Retries != 0 || st.Transient != 0 {
		t.Errorf("ScanStats=%+v — cancellation was classified as a failure", st)
	}
}

// TestMineSurvivesTransientPhase1Fault: a transient fault in Phase 1's scan
// is retried, and the result equals a fault-free run's. A full-coverage
// sample keeps the retried Phase 1 deterministic (a sampler that needs
// every sequence draws no randomness).
func TestMineSurvivesTransientPhase1Fault(t *testing.T) {
	cfg := func() Config {
		cfg := faultConfig(2)
		cfg.SampleSize = 60
		return cfg
	}
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	want, err := MineContext(context.Background(), db, c, cfg())
	if err != nil {
		t.Fatal(err)
	}
	db2, c2 := noisyProteinDB(t, 77, 60, 0.2)
	retry := &seqdb.RetryScanner{
		Inner: faults.New(db2, faults.TransientOn(1, 5)),
		Sleep: func(time.Duration) {},
	}
	got, err := MineContext(context.Background(), retry, c2, cfg())
	if err != nil {
		t.Fatalf("transient fault not healed: %v", err)
	}
	setsEqual(t, got.Frequent, want.Frequent, "Frequent")
	setsEqual(t, got.Border, want.Border, "Border")
	if got.Scans != want.Scans {
		t.Errorf("Scans=%d, want %d", got.Scans, want.Scans)
	}
	if got.ScanStats.Retries != 1 {
		t.Errorf("ScanStats=%+v", got.ScanStats)
	}
}
