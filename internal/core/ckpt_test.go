package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// ckptConfig is faultConfig plus checkpointing to path.
func ckptConfig(seed int64, path string) Config {
	cfg := faultConfig(seed)
	cfg.Checkpoint = &CheckpointPolicy{Path: path, Seed: seed}
	return cfg
}

// TestResumeAfterKillAtEveryCheckpoint is the crash-recovery proof: the run
// is killed immediately after each checkpoint write in turn (after Phase 1,
// after Phase 2, after every probe scan), resumed from the snapshot, and the
// resumed result must match the uninterrupted run exactly — same frequent
// set, border, exact probe values, and logical scan count — while performing
// strictly fewer full scans than a from-scratch run.
func TestResumeAfterKillAtEveryCheckpoint(t *testing.T) {
	const worldSeed, rngSeed = 77, 2

	// Uninterrupted baseline (checkpointed, counting the writes).
	db, c := noisyProteinDB(t, worldSeed, 60, 0.2)
	basePath := filepath.Join(t.TempDir(), "base.lckp")
	writes := 0
	baseCfg := ckptConfig(rngSeed, basePath)
	baseCfg.Checkpoint.AfterWrite = func(int) { writes++ }
	want, err := MineContext(context.Background(), db, c, baseCfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Phase3 == nil || want.Phase3.Scans < 2 {
		t.Fatalf("world too easy: %d probe scans; kill points would not cover the probe loop", scansOf(want))
	}
	if writes != 2+want.Phase3.Scans {
		t.Fatalf("writes=%d, want %d (phase1 + phase2 + every probe scan)", writes, 2+want.Phase3.Scans)
	}
	basePhysical := db.Scans()
	if basePhysical != want.Scans {
		t.Fatalf("baseline physical scans %d != logical %d", basePhysical, want.Scans)
	}

	for k := 1; k <= writes; k++ {
		// Fresh, identical world; kill right after the k-th write.
		db2, c2 := noisyProteinDB(t, worldSeed, 60, 0.2)
		path := filepath.Join(t.TempDir(), "run.lckp")
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		cfg := ckptConfig(rngSeed, path)
		cfg.Checkpoint.AfterWrite = func(int) {
			n++
			if n == k {
				cancel()
			}
		}
		_, err := MineContext(ctx, db2, c2, cfg)
		cancel()
		if k < writes {
			// Cancellation lands at the next context check.
			var pe *PhaseError
			if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
				t.Fatalf("kill %d: err=%v, want a cancellation PhaseError", k, err)
			}
		} else if err != nil {
			// The last write happens after the final probe scan; the run
			// finishes before any further context check.
			t.Fatalf("kill %d (after final write): err=%v", k, err)
		}

		// Resume on a fresh database handle and compare against the baseline.
		db3, c3 := noisyProteinDB(t, worldSeed, 60, 0.2)
		metrics := &telemetry.Metrics{}
		rcfg := ckptConfig(rngSeed, path)
		rcfg.Metrics = metrics
		got, err := Resume(context.Background(), path, db3, c3, rcfg)
		if err != nil {
			t.Fatalf("kill %d: Resume: %v", k, err)
		}
		setsEqual(t, got.Frequent, want.Frequent, "Frequent")
		setsEqual(t, got.Border, want.Border, "Border")
		if got.Scans != want.Scans {
			t.Errorf("kill %d: logical Scans=%d, want %d", k, got.Scans, want.Scans)
		}
		if got.ResumedFrom < 1 {
			t.Errorf("kill %d: ResumedFrom=%d", k, got.ResumedFrom)
		}
		if got.ScansSkipped < 1 {
			t.Errorf("kill %d: ScansSkipped=%d, want >= 1", k, got.ScansSkipped)
		}
		if phys := db3.Scans(); phys != want.Scans-got.ScansSkipped {
			t.Errorf("kill %d: resumed run performed %d scans, want %d (logical %d - skipped %d)",
				k, phys, want.Scans-got.ScansSkipped, want.Scans, got.ScansSkipped)
		}
		if db3.Scans() >= basePhysical {
			t.Errorf("kill %d: resume performed %d scans, not fewer than the %d of a fresh run",
				k, db3.Scans(), basePhysical)
		}
		if got.Phase3 != nil && want.Phase3 != nil {
			if !reflect.DeepEqual(got.Phase3.Exact, want.Phase3.Exact) {
				t.Errorf("kill %d: probed exact values differ from the uninterrupted run", k)
			}
		}
		snap := metrics.Snapshot()
		if snap.ResumedPhase < 1 || int(snap.ScansAvoided) != got.ScansSkipped {
			t.Errorf("kill %d: telemetry resume counters = (%d, %d), want (>=1, %d)",
				k, snap.ResumedPhase, snap.ScansAvoided, got.ScansSkipped)
		}
	}
}

func scansOf(r *Result) int {
	if r.Phase3 == nil {
		return 0
	}
	return r.Phase3.Scans
}

// TestResumeRejectsIncompatibleRun covers the compatibility gate: a changed
// configuration or a different database must be refused, not silently mixed
// with the snapshot.
func TestResumeRejectsIncompatibleRun(t *testing.T) {
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	path := filepath.Join(t.TempDir(), "run.lckp")
	if _, err := MineContext(context.Background(), db, c, ckptConfig(2, path)); err != nil {
		t.Fatal(err)
	}

	t.Run("changed config", func(t *testing.T) {
		db2, c2 := noisyProteinDB(t, 77, 60, 0.2)
		cfg := ckptConfig(2, path)
		cfg.MinMatch = 0.2 // not what the snapshot was mined with
		_, err := Resume(context.Background(), path, db2, c2, cfg)
		if !errors.Is(err, ErrIncompatible) {
			t.Errorf("err=%v, want ErrIncompatible", err)
		}
	})
	t.Run("changed database", func(t *testing.T) {
		db2, c2 := noisyProteinDB(t, 99, 61, 0.2) // different size
		_, err := Resume(context.Background(), path, db2, c2, ckptConfig(2, path))
		if !errors.Is(err, ErrIncompatible) {
			t.Errorf("err=%v, want ErrIncompatible", err)
		}
	})
	t.Run("retired sweep engine", func(t *testing.T) {
		snap, err := checkpoint.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		snap.Engine = "sweep"
		sweepPath := filepath.Join(t.TempDir(), "sweep.lckp")
		if _, err := checkpoint.Save(sweepPath, snap); err != nil {
			t.Fatal(err)
		}
		db2, c2 := noisyProteinDB(t, 77, 60, 0.2)
		_, err = Resume(context.Background(), sweepPath, db2, c2, ckptConfig(2, sweepPath))
		if !errors.Is(err, ErrIncompatible) || !strings.Contains(err.Error(), `"sweep" is retired`) {
			t.Errorf("err=%v, want ErrIncompatible naming the retired engine", err)
		}
	})
	t.Run("missing snapshot", func(t *testing.T) {
		db2, c2 := noisyProteinDB(t, 77, 60, 0.2)
		_, err := Resume(context.Background(), filepath.Join(t.TempDir(), "nope.lckp"), db2, c2, ckptConfig(2, path))
		if err == nil {
			t.Error("Resume of a missing snapshot succeeded")
		}
	})
}

// TestConfigHashPinned pins the checkpoint config hash of every finalizer
// to the values earlier releases wrote: the hash formats the finalizer by
// its String name, so renaming or renumbering one would make every existing
// checkpoint of it unresumable (ErrIncompatible).
func TestConfigHashPinned(t *testing.T) {
	for _, tc := range []struct {
		fin    Finalizer
		engine string
		want   uint64
	}{
		{BorderCollapsing, engineCandidates, 0xbbc32f203549e070},
		{LevelWise, engineCandidates, 0x85408a189534a32e},
		{None, engineCandidates, 0xc7535530383c1603},
	} {
		cfg := Config{MinMatch: 0.3, SampleSize: 200, MaxLen: 6, MaxGap: 2,
			MaxCandidatesPerLevel: 50000, MemBudget: 500, Finalizer: tc.fin}
		cfg.setDefaults()
		if got := configHash(&cfg, tc.engine); got != tc.want {
			t.Errorf("configHash(%s, %s) = %#x, want %#x", tc.fin, tc.engine, got, tc.want)
		}
	}
}

// slowScanner delays every delivered sequence, so phase budgets expire at
// predictable points.
type slowScanner struct {
	*seqdb.MemDB
	delay time.Duration
}

func (s *slowScanner) Scan(fn func(int, []pattern.Symbol) error) error {
	return s.ScanContext(nil, fn)
}

func (s *slowScanner) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	return s.MemDB.ScanContext(ctx, func(id int, seq []pattern.Symbol) error {
		time.Sleep(s.delay)
		return fn(id, seq)
	})
}

// TestPhase3BudgetDegradesGracefully expires the Phase 3 budget mid-probe:
// the run must succeed (no error), flag itself Degraded, report the frequent
// set confirmed so far, and annotate every still-ambiguous pattern with its
// sample match and Chernoff interval. A later Resume from the degraded run's
// checkpoint must finish the collapse and land on the uninterrupted result.
func TestPhase3BudgetDegradesGracefully(t *testing.T) {
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	want, err := MineContext(context.Background(), db, c, faultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if want.Phase3 == nil || want.Phase3.Scans == 0 {
		t.Fatal("world does not force Phase 3 scans")
	}

	db2, c2 := noisyProteinDB(t, 77, 60, 0.2)
	slow := &slowScanner{MemDB: db2, delay: 2 * time.Millisecond}
	path := filepath.Join(t.TempDir(), "degraded.lckp")
	cfg := ckptConfig(2, path)
	cfg.PhaseTimeouts.Phase3 = 20 * time.Millisecond // well under one 120ms scan
	res, err := MineContext(context.Background(), slow, c2, cfg)
	if err != nil {
		t.Fatalf("budget expiry must degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Fatal("Degraded not set")
	}
	if len(res.Unresolved) == 0 {
		t.Fatal("degraded run reports no unresolved patterns")
	}
	unresolved := pattern.NewSet()
	for _, u := range res.Unresolved {
		if u.Epsilon <= 0 || math.IsInf(u.Epsilon, 1) {
			t.Errorf("unresolved %v: epsilon=%v is not a usable bound", u.Pattern, u.Epsilon)
		}
		if res.Phase2.Values[u.Pattern.Key()] != u.SampleMatch {
			t.Errorf("unresolved %v: SampleMatch=%v != recorded sample value", u.Pattern, u.SampleMatch)
		}
		unresolved.Add(u.Pattern)
	}
	// The degraded frequent set must sit between "confirmed so far" and the
	// full result: everything it claims is in the uninterrupted frequent
	// set, and everything it misses is accounted for in Unresolved.
	for _, p := range res.Frequent.Patterns() {
		if !want.Frequent.Contains(p) {
			t.Errorf("degraded Frequent claims %v, absent from the full run", p)
		}
	}
	for _, p := range want.Frequent.Patterns() {
		if !res.Frequent.Contains(p) && !unresolved.Contains(p) {
			t.Errorf("full-run frequent %v neither confirmed nor listed unresolved", p)
		}
	}

	// Resuming without the budget finishes the collapse exactly.
	db3, c3 := noisyProteinDB(t, 77, 60, 0.2)
	got, err := Resume(context.Background(), path, db3, c3, ckptConfig(2, path))
	if err != nil {
		t.Fatalf("Resume after degradation: %v", err)
	}
	if got.Degraded {
		t.Error("resumed run still degraded")
	}
	setsEqual(t, got.Frequent, want.Frequent, "Frequent(after degraded resume)")
	setsEqual(t, got.Border, want.Border, "Border(after degraded resume)")
}

// TestPhase1BudgetIsHard verifies the non-degrading budgets: a Phase 1
// deadline fails the run with a PhaseError wrapping DeadlineExceeded.
func TestPhase1BudgetIsHard(t *testing.T) {
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	slow := &slowScanner{MemDB: db, delay: 2 * time.Millisecond}
	cfg := faultConfig(2)
	cfg.PhaseTimeouts.Phase1 = 10 * time.Millisecond
	res, err := MineContext(context.Background(), slow, c, cfg)
	var pe *PhaseError
	if !errors.As(err, &pe) || pe.Phase != 1 {
		t.Fatalf("err=%v, want a phase-1 PhaseError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v does not wrap DeadlineExceeded", err)
	}
	if res == nil || res.PhaseReached != 1 {
		t.Errorf("partial result=%+v, want PhaseReached=1", res)
	}
}

// TestCheckpointIntervalPhase checks the coarser write policy: no writes
// during the probe loop, but the final flush on failure still lands, so a
// kill mid-Phase 3 resumes from the last completed probe scan.
func TestCheckpointIntervalPhase(t *testing.T) {
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	path := filepath.Join(t.TempDir(), "run.lckp")
	writesByPhase := make(map[int]int)
	cfg := ckptConfig(2, path)
	cfg.Checkpoint.Interval = IntervalPhase
	cfg.Checkpoint.AfterWrite = func(phase int) { writesByPhase[phase]++ }
	want, err := MineContext(context.Background(), db, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if writesByPhase[1] != 1 || writesByPhase[2] != 1 {
		t.Errorf("writes by phase = %v, want one each for phases 1 and 2", writesByPhase)
	}
	if writesByPhase[3] != 0 {
		t.Errorf("IntervalPhase wrote %d probe-scan snapshots", writesByPhase[3])
	}

	// Cancel mid-probe-loop: the final flush persists the loop state and a
	// resume completes with the correct result.
	db2, c2 := noisyProteinDB(t, 77, 60, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	cfg2 := ckptConfig(2, path)
	cfg2.Checkpoint.Interval = IntervalPhase
	sc := &cancelScanner{MemDB: db2, cancel: cancel, scan: 2, seq: 5}
	if _, err := MineContext(ctx, sc, c2, cfg2); !errors.Is(err, context.Canceled) {
		cancel()
		t.Fatalf("err=%v, want cancellation", err)
	}
	cancel()
	db3, c3 := noisyProteinDB(t, 77, 60, 0.2)
	rcfg := ckptConfig(2, path)
	rcfg.Checkpoint.Interval = IntervalPhase
	got, err := Resume(context.Background(), path, db3, c3, rcfg)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	setsEqual(t, got.Frequent, want.Frequent, "Frequent(IntervalPhase)")
	setsEqual(t, got.Border, want.Border, "Border(IntervalPhase)")
}

// TestCheckpointTelemetry asserts the write-side counters: every snapshot
// write is tallied with its bytes and duration.
func TestCheckpointTelemetry(t *testing.T) {
	db, c := noisyProteinDB(t, 77, 60, 0.2)
	metrics := &telemetry.Metrics{}
	cfg := ckptConfig(2, filepath.Join(t.TempDir(), "run.lckp"))
	cfg.Metrics = metrics
	writes := 0
	cfg.Checkpoint.AfterWrite = func(int) { writes++ }
	if _, err := MineContext(context.Background(), db, c, cfg); err != nil {
		t.Fatal(err)
	}
	snap := metrics.Snapshot()
	if int(snap.CheckpointWrites) != writes || writes == 0 {
		t.Errorf("CheckpointWrites=%d, want %d", snap.CheckpointWrites, writes)
	}
	if snap.CheckpointBytes <= 0 {
		t.Errorf("CheckpointBytes=%d", snap.CheckpointBytes)
	}
	if snap.ResumedPhase != 0 {
		t.Errorf("fresh run reports ResumedPhase=%d", snap.ResumedPhase)
	}
}
