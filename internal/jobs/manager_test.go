package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// testWorld writes a small noisy protein database and its compatibility
// matrix to disk, returning their paths — the on-disk fixture every manager
// test submits jobs against.
func testWorld(t *testing.T, seed int64, n int, alpha float64) (dbPath, matrixPath string) {
	t.Helper()
	return testWorldLen(t, seed, n, alpha, 10, 14)
}

// testWorldLen is testWorld with sequence lengths drawn from [minLen, maxLen].
func testWorldLen(t *testing.T, seed int64, n int, alpha float64, minLen, maxLen int) (dbPath, matrixPath string) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	const m = 6
	std, _, err := datagen.Protein(datagen.ProteinConfig{
		N: n, M: m, MinLen: minLen, MaxLen: maxLen,
		Motifs:    []pattern.Pattern{pattern.MustNew(0, 1, 2)},
		PlantProb: 0.7,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := datagen.ApplyUniformNoise(std, m, alpha, rng)
	if err != nil {
		t.Fatal(err)
	}
	dbPath = filepath.Join(dir, "world.lsq")
	if err := seqdb.WriteFile(dbPath, noisy); err != nil {
		t.Fatal(err)
	}
	c, err := compat.UniformNoise(m, alpha)
	if err != nil {
		t.Fatal(err)
	}
	matrixPath = filepath.Join(dir, "world.compat")
	f, err := os.Create(matrixPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dbPath, matrixPath
}

// testSpec is the standard job over the test world: small sample, modest
// thresholds, deterministic seed.
func testSpec(dbPath, matrixPath string) Spec {
	return Spec{
		DB:       dbPath,
		Matrix:   matrixPath,
		MinMatch: 0.30,
		MaxLen:   6,
		Delta:    1e-2,
		Sample:   30,
		Seed:     2,
	}
}

func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return m
}

func waitDone(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return st
}

func TestSubmitRunsToCompletion(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 40, 0.2)
	reg := telemetry.NewRegistry()
	m := newTestManager(t, Options{Registry: reg})
	st, err := m.Submit(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("submitted state = %s", st.State)
	}
	final := waitDone(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", final.State, final.Error)
	}
	if final.Telemetry == nil || final.Telemetry.TotalScans < 1 {
		t.Fatalf("final telemetry missing or empty: %+v", final.Telemetry)
	}
	doc, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatalf("result doc does not parse: %v", err)
	}
	if res.Schema != ResultSchema {
		t.Errorf("schema = %q, want %q", res.Schema, ResultSchema)
	}
	if len(res.Frequent) == 0 {
		t.Error("no frequent patterns in a world with a planted motif")
	}
	if c := m.Counters(); c.Accepted != 1 || c.Completed != 1 {
		t.Errorf("counters = %+v, want 1 accepted, 1 completed", c)
	}
	// The job's collector is unregistered after the terminal transition.
	if names := reg.Names(); len(names) != 0 {
		t.Errorf("registry still holds %v after completion", names)
	}
}

// TestShardSetJobMatchesSingleFile: a job whose db names a comma-separated
// shard set (seqdb.WriteShardFiles) opens it as lspmine -db does and returns
// the single-file job's result document byte for byte.
func TestShardSetJobMatchesSingleFile(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 80, 0.2)
	db, err := seqdb.LoadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := seqdb.WriteShardFiles(db, filepath.Join(t.TempDir(), "world"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("wrote %d shard files, want 2", len(paths))
	}
	m := newTestManager(t, Options{})
	var docs [][]byte
	for _, arg := range []string{dbPath, strings.Join(paths, ",")} {
		st, err := m.Submit(testSpec(arg, matrixPath))
		if err != nil {
			t.Fatal(err)
		}
		if final := waitDone(t, m, st.ID); final.State != StateDone {
			t.Fatalf("db %q: state = %s (error %q), want done", arg, final.State, final.Error)
		}
		doc, err := m.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Errorf("shard-set result differs from the single file's:\n%s\nvs\n%s", docs[1], docs[0])
	}
}

func TestResultBeforeDone(t *testing.T) {
	m := newTestManager(t, Options{})
	if _, err := m.Result("no-such-job"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Result(unknown) = %v, want ErrUnknownJob", err)
	}
	if _, err := m.Status("no-such-job"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Status(unknown) = %v, want ErrUnknownJob", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Options{})
	bad := []Spec{
		{},                                    // no db
		{DB: "x"},                             // no matrix
		{DB: "x", Matrix: "y"},                // no min_match
		{DB: "x", Matrix: "y", MinMatch: 2},   // out of range
		{DB: "x", Matrix: "y", MinMatch: 0.5}, // no max_len
		{DB: "x", Matrix: "y", MinMatch: 0.5, MaxLen: 3, Engine: "warp"},          // bad engine
		{DB: "x", Matrix: "y", MinMatch: 0.5, MaxLen: 3, Finalizer: "guesswork"},  // bad finalizer
		{DB: "x", Matrix: "y", MinMatch: 0.5, MaxLen: 3, Phase3TimeoutMillis: -1}, // negative budget
		{DB: "x", Matrix: "y", MinMatch: 0.5, MaxLen: 3, Engine: "SWEEP"},         // names are case-sensitive
	}
	for i, spec := range bad {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
	if c := m.Counters(); c.Accepted != 0 {
		t.Errorf("invalid specs counted as accepted: %+v", c)
	}
}

// TestGrowthEngineJob checks that a job's Phase 2 engine is picked from its
// sample and named in the result document: long sequences over the 6-symbol
// alphabet (mean length 24 ≥ 3 × 6) run growth, short ones (mean 12) run
// level-wise, and the growth job's document equals a forced level-wise mine
// of the same spec in everything but the engine name.
func TestGrowthEngineJob(t *testing.T) {
	seed := testutil.Seed(t)
	m := newTestManager(t, Options{})
	for _, tc := range []struct {
		minLen, maxLen int
		engine         string
	}{{20, 28, "growth"}, {10, 14, "levelwise"}} {
		dbPath, matrixPath := testWorldLen(t, seed, 40, 0.2, tc.minLen, tc.maxLen)
		spec := testSpec(dbPath, matrixPath)
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.engine, err)
		}
		if final := waitDone(t, m, st.ID); final.State != StateDone {
			t.Fatalf("%s: state = %s (error %q)", tc.engine, final.State, final.Error)
		}
		doc, err := m.Result(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		if err := json.Unmarshal(doc, &got); err != nil {
			t.Fatal(err)
		}
		if got.Phase2Engine != tc.engine {
			t.Fatalf("mean length in [%d, %d]: phase2_engine = %q, want %q", tc.minLen, tc.maxLen, got.Phase2Engine, tc.engine)
		}
		if len(got.Frequent) == 0 {
			t.Fatalf("%s job found no frequent patterns in a world with a planted motif", tc.engine)
		}

		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		db, err := seqdb.OpenAuto(dbPath)
		if err != nil {
			t.Fatal(err)
		}
		c, err := defaultOpenMatrix(spec)
		if err != nil {
			t.Fatal(err)
		}
		lw, err := core.Mine(db, c, core.Config{
			MinMatch: spec.MinMatch, Delta: spec.Delta, SampleSize: spec.Sample,
			MaxLen: spec.MaxLen, MaxGap: spec.MaxGap, MaxCandidatesPerLevel: spec.MaxCandidates,
			MemBudget: spec.MemBudget, Phase2Engine: core.Phase2Levelwise,
			Rng: rand.New(rand.NewSource(spec.Seed)),
		})
		closeIfCloser(db)
		if err != nil {
			t.Fatal(err)
		}
		wantDoc, err := buildResult(lw, spec, db.Len(), c.Size())
		if err != nil {
			t.Fatal(err)
		}
		var want Result
		if err := json.Unmarshal(wantDoc, &want); err != nil {
			t.Fatal(err)
		}
		want.Phase2Engine = tc.engine
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s job's document differs from a forced level-wise mine:\n%s\n%s", tc.engine, doc, wantDoc)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 40, 0.2)
	// One slot and a slow job in front keeps the second job queued.
	m := newTestManager(t, Options{
		WorkerSlots: 1,
		OpenDB:      throttledOpener(500 * time.Microsecond),
	})
	first, err := m.Submit(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Submit(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The cancel either settled immediately (still queued) or lands when the
	// scheduler pops it; both end canceled.
	st = waitDone(t, m, second.ID)
	if st.State != StateCanceled {
		t.Fatalf("canceled queued job state = %s", st.State)
	}
	if st := waitDone(t, m, first.ID); st.State != StateDone {
		t.Fatalf("first job state = %s (error %q)", st.State, st.Error)
	}
}

func TestCancelRunningJob(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 40, 0.2)
	started := make(chan string, 1)
	m := newTestManager(t, Options{
		OpenDB: throttledOpener(time.Millisecond),
		AfterCheckpoint: func(id string, phase int) {
			select {
			case started <- id:
			default:
			}
		},
	})
	st, err := m.Submit(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never wrote a checkpoint")
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", final.State)
	}
	if _, err := m.Result(st.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("Result(canceled) = %v, want ErrNotDone", err)
	}
	if c := m.Counters(); c.Canceled != 1 {
		t.Errorf("counters = %+v, want 1 canceled", c)
	}
}

// throttledOpener opens the spec's database and slows each sequence by
// perSeq, so tests can reliably catch jobs mid-run.
func throttledOpener(perSeq time.Duration) func(Spec) (seqdb.Scanner, error) {
	return func(spec Spec) (seqdb.Scanner, error) {
		db, err := seqdb.OpenAuto(spec.DB)
		if err != nil {
			return nil, err
		}
		return &slowScanner{Inner: db, PerSeq: perSeq}, nil
	}
}

// slowScanner is a minimal in-package throttle (internal/faults has the
// full-featured one; duplicating three methods here avoids an import cycle
// in faults' own tests, which import this package).
type slowScanner struct {
	Inner  seqdb.Scanner
	PerSeq time.Duration
}

func (s *slowScanner) Len() int    { return s.Inner.Len() }
func (s *slowScanner) Scans() int  { return s.Inner.Scans() }
func (s *slowScanner) ResetScans() { s.Inner.ResetScans() }
func (s *slowScanner) Path() string {
	if p, ok := s.Inner.(interface{ Path() string }); ok {
		return p.Path()
	}
	return ""
}

func (s *slowScanner) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	return s.ScanContext(nil, fn)
}

func (s *slowScanner) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	return seqdb.ScanContext(ctx, s.Inner, func(id int, seq []pattern.Symbol) error {
		timer := time.NewTimer(s.PerSeq)
		defer timer.Stop()
		if ctx != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		} else {
			<-timer.C
		}
		return fn(id, seq)
	})
}

func TestDegradedJobCompletesWithExitContract(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 60, 0.2)
	m := newTestManager(t, Options{OpenDB: throttledOpener(2 * time.Millisecond)})
	spec := testSpec(dbPath, matrixPath)
	// A 1ms Phase 3 budget against a 2ms-per-sequence store expires on the
	// first probe scan.
	spec.Phase3TimeoutMillis = 1
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (error %q), want done: deadline expiry degrades, never fails", final.State, final.Error)
	}
	if !final.Degraded {
		t.Fatal("job not marked degraded")
	}
	if final.Telemetry == nil || !final.Telemetry.Degraded {
		t.Error("telemetry snapshot not marked degraded")
	}
	doc, err := m.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.Unmarshal(doc, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Error("result document not marked degraded")
	}
	if c := m.Counters(); c.Degraded != 1 || c.Completed != 1 {
		t.Errorf("counters = %+v, want degraded=1 completed=1", c)
	}
	// A degraded job keeps its checkpoint (the probe progress is resumable).
	if !m.journal.hasCheckpoint(st.ID) {
		t.Error("degraded job's checkpoint was dropped")
	}
}

// TestKillResumeBitIdentical is the tentpole acceptance test: a manager is
// killed (Crash — journaling suppressed, exactly SIGKILL's disk state) with
// two jobs mid-flight, each past at least one checkpoint; a new manager over
// the same directory replays the journal, resumes both from their
// checkpoints, and must produce result documents byte-identical to an
// uninterrupted manager's. Job A's short sequences run Phase 2 level-wise,
// job B's long ones run it by pattern growth.
func TestKillResumeBitIdentical(t *testing.T) {
	dbPath, matrixPath := testWorld(t, 77, 60, 0.2)
	longDBPath, longMatrixPath := testWorldLen(t, 77, 60, 0.2, 20, 28)
	specA := testSpec(dbPath, matrixPath)
	specA.Seed = 2
	specB := testSpec(longDBPath, longMatrixPath)
	specB.Seed = 5
	specB.MinMatch = 0.25

	// Uninterrupted baseline.
	base := newTestManager(t, Options{WorkerSlots: 2, MaxWorkersPerJob: 1})
	baseA, err := base.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	baseB, err := base.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, base, baseA.ID); st.State != StateDone {
		t.Fatalf("baseline A: %s (%s)", st.State, st.Error)
	}
	if st := waitDone(t, base, baseB.ID); st.State != StateDone {
		t.Fatalf("baseline B: %s (%s)", st.State, st.Error)
	}
	wantA, err := base.Result(baseA.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := base.Result(baseB.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		doc    []byte
		engine string
	}{{wantA, "levelwise"}, {wantB, "growth"}} {
		var res Result
		if err := json.Unmarshal(tc.doc, &res); err != nil {
			t.Fatal(err)
		}
		if res.Phase2Engine != tc.engine {
			t.Fatalf("baseline phase2_engine = %q, want %q", res.Phase2Engine, tc.engine)
		}
	}

	// Crash run: both jobs in flight, each past >= 1 checkpoint, then kill.
	dir := t.TempDir()
	var mu sync.Mutex
	seen := map[string]int{}
	bothCheckpointed := make(chan struct{})
	var once sync.Once
	opts := Options{
		Dir:              dir,
		WorkerSlots:      2,
		MaxWorkersPerJob: 1,
		OpenDB:           throttledOpener(time.Millisecond),
		AfterCheckpoint: func(id string, phase int) {
			mu.Lock()
			seen[id]++
			n := len(seen)
			mu.Unlock()
			if n >= 2 {
				once.Do(func() { close(bothCheckpointed) })
			}
		},
	}
	victim, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	killA, err := victim.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	killB, err := victim.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-bothCheckpointed:
	case <-time.After(60 * time.Second):
		t.Fatal("jobs never both checkpointed")
	}
	victim.Crash()

	// The disk must show both jobs still "running" — the kill beat their
	// terminal transitions.
	for _, id := range []string{killA.ID, killB.ID} {
		data, err := os.ReadFile(filepath.Join(dir, "jobs", id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != StateRunning {
			t.Fatalf("journaled state of %s after crash = %s, want running", id, rec.State)
		}
	}

	// Restart over the same directory: replay must resume both to done.
	opts.AfterCheckpoint = nil
	revived := newTestManager(t, opts)
	if c := revived.Counters(); c.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2", c.Replayed)
	}
	for _, tc := range []struct {
		id   string
		want []byte
	}{{killA.ID, wantA}, {killB.ID, wantB}} {
		st := waitDone(t, revived, tc.id)
		if st.State != StateDone {
			t.Fatalf("revived %s: state %s (%s)", tc.id, st.State, st.Error)
		}
		if st.Resumed < 1 {
			t.Errorf("revived %s: Resumed = %d, want >= 1", tc.id, st.Resumed)
		}
		got, err := revived.Result(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("revived %s: result differs from the uninterrupted run\ngot:  %s\nwant: %s",
				tc.id, got, tc.want)
		}
	}
}

// TestGracefulShutdownLeavesJobsResumable covers the drain path: Shutdown
// cancels running jobs but deliberately leaves their journal records
// "running", so the next manager finishes them.
func TestGracefulShutdownLeavesJobsResumable(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 60, 0.2)
	dir := t.TempDir()
	checkpointed := make(chan struct{})
	var once sync.Once
	opts := Options{
		Dir:    dir,
		OpenDB: throttledOpener(time.Millisecond),
		AfterCheckpoint: func(id string, phase int) {
			once.Do(func() { close(checkpointed) })
		},
	}
	first, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := first.Submit(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-checkpointed:
	case <-time.After(30 * time.Second):
		t.Fatal("job never checkpointed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Submit(testSpec(dbPath, matrixPath)); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Shutdown = %v, want ErrClosed", err)
	}

	opts.AfterCheckpoint = nil
	second := newTestManager(t, opts)
	final := waitDone(t, second, st.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job state = %s (%s)", final.State, final.Error)
	}
	if final.Resumed < 1 {
		t.Errorf("Resumed = %d, want >= 1", final.Resumed)
	}
}

// TestQueuedJobSurvivesRestart: a job accepted but never started (the single
// worker slot is busy) is durable and runs on the next manager.
func TestQueuedJobSurvivesRestart(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 40, 0.2)
	dir := t.TempDir()
	checkpointed := make(chan struct{})
	var once sync.Once
	opts := Options{
		Dir:              dir,
		WorkerSlots:      1,
		MaxWorkersPerJob: 1,
		OpenDB:           throttledOpener(time.Millisecond),
		AfterCheckpoint: func(id string, phase int) {
			once.Do(func() { close(checkpointed) })
		},
	}
	first, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Submit(testSpec(dbPath, matrixPath)); err != nil {
		t.Fatal(err)
	}
	queued, err := first.Submit(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-checkpointed:
	case <-time.After(30 * time.Second):
		t.Fatal("first job never checkpointed")
	}
	first.Crash()

	data, err := os.ReadFile(filepath.Join(dir, "jobs", queued.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != StateQueued {
		t.Fatalf("journaled state of the waiting job = %s, want queued", rec.State)
	}

	second := newTestManager(t, Options{Dir: dir})
	final := waitDone(t, second, queued.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
}

func TestFailedJobReportsError(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 40, 0.2)
	m := newTestManager(t, Options{
		OpenDB: func(spec Spec) (seqdb.Scanner, error) {
			return nil, errors.New("store is on fire")
		},
	})
	st, err := m.Submit(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Error == "" {
		t.Error("failed job carries no error detail")
	}
	if c := m.Counters(); c.Failed != 1 {
		t.Errorf("counters = %+v, want 1 failed", c)
	}
}

// TestJournalRecordWithRetiredFieldReplays: a queued job journaled by an
// older server, whose spec still carries the retired phase3_shards and
// phase2_engine fields, replays and runs to completion.
func TestJournalRecordWithRetiredFieldReplays(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 40, 0.2)
	dir := t.TempDir()
	spec := testSpec(dbPath, matrixPath)
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	fields["phase3_shards"] = 4
	fields["phase2_engine"] = "growth"
	const id = "retired-field"
	rec, err := json.Marshal(map[string]any{"id": id, "spec": fields, "state": StateQueued, "submitted_ms": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", id+".json"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Options{Dir: dir})
	if st := waitDone(t, m, id); st.State != StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
}

// retiredSpecs are the spec values retired after specs naming them were
// accepted, each with the text its rejection must carry: the retired value
// and its replacement.
var retiredSpecs = []struct {
	name        string
	retire      func(*Spec)
	retired     string
	replacement string
}{
	{"finalizer", func(s *Spec) { s.Finalizer = "implicit" }, `"implicit" is retired`, `"collapse"`},
	{"engine", func(s *Spec) { s.Engine = "sweep" }, `"sweep" is retired`, `"candidates"`},
}

// TestJournaledRetiredFinalizer: records journaled before the implicit
// finalizer or the sweep engine was retired replay by their state. A queued
// or running one settles as failed with the retirement error, which names
// the value and its replacement, although its database and matrix open
// fine; a done one stays queryable as it was, result document included.
func TestJournaledRetiredFinalizer(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 40, 0.2)
	for _, tc := range retiredSpecs {
		dir := t.TempDir()
		spec := testSpec(dbPath, matrixPath)
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		tc.retire(&spec)
		if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
			t.Fatal(err)
		}
		doc := []byte(`{"schema":"old"}` + "\n")
		for i, state := range []State{StateQueued, StateRunning, StateDone} {
			rec := record{ID: string(state), Spec: spec, State: state, SubmittedMs: int64(i + 1)}
			if state == StateDone {
				rec.FinishedMs = 10
				if err := os.WriteFile(filepath.Join(dir, "jobs", rec.ID+".result.json"), doc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "jobs", rec.ID+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m := newTestManager(t, Options{Dir: dir})
		for _, id := range []string{string(StateQueued), string(StateRunning)} {
			st := waitDone(t, m, id)
			if st.State != StateFailed || !strings.Contains(st.Error, tc.retired) || !strings.Contains(st.Error, tc.replacement) {
				t.Errorf("%s: replayed %s record: state %s, error %q; want failed with the retirement error", tc.name, id, st.State, st.Error)
			}
		}
		if st, err := m.Status(string(StateDone)); err != nil || st.State != StateDone {
			t.Errorf("%s: done record: %+v, %v", tc.name, st, err)
		}
		if got, err := m.Result(string(StateDone)); err != nil || !bytes.Equal(got, doc) {
			t.Errorf("%s: done record's result = %q, %v; want %q", tc.name, got, err, doc)
		}
		if c := m.Counters(); c.Failed != 2 {
			t.Errorf("%s: counters = %+v, want 2 failed", tc.name, c)
		}
	}
}

// TestOutOfAlphabetJobFails: a job over a store holding symbol 9, mined with
// the test world's 6-symbol matrix, ends failed with Phase 1's reason — the
// sequence, the symbol and its position — instead of bringing the manager
// down, and a job submitted after it still completes.
func TestOutOfAlphabetJobFails(t *testing.T) {
	dbPath, matrixPath := testWorld(t, testutil.Seed(t), 40, 0.2)
	bad := filepath.Join(t.TempDir(), "bad.lsq")
	if err := seqdb.WriteFile(bad, seqdb.NewMemDB([][]pattern.Symbol{{0, 1, 2}, {3, 4, 5}, {1, 9, 2}})); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Options{})
	st, err := m.Submit(testSpec(bad, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, st.ID)
	if want := "core: phase 1: sequence 2: match: symbol 9 at position 1 is outside the alphabet of 6 symbols"; final.State != StateFailed || final.Error != want {
		t.Fatalf("state %s, error %q; want failed with %q", final.State, final.Error, want)
	}
	st, err = m.Submit(testSpec(dbPath, matrixPath))
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, m, st.ID); final.State != StateDone {
		t.Fatalf("the job after it: state %s (error %q), want done", final.State, final.Error)
	}
	if c := m.Counters(); c.Failed != 1 || c.Completed != 1 {
		t.Errorf("counters = %+v, want 1 failed, 1 completed", c)
	}
}
