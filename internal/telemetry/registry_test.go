package telemetry_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// This file is an external test package so it can drive real core.Mine runs
// against the registry — core imports telemetry, so an internal test would
// cycle.

func TestRegistryBasics(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := reg.Get("a")
	if a == nil {
		t.Fatal("Get returned nil on a live registry")
	}
	if reg.Get("a") != a {
		t.Error("Get(a) twice returned different collectors")
	}
	if reg.Lookup("a") != a {
		t.Error("Lookup(a) missed the registered collector")
	}
	if reg.Lookup("b") != nil {
		t.Error("Lookup(b) invented a collector")
	}
	reg.Get("c")
	reg.Get("b")
	if names := reg.Names(); !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
		t.Errorf("Names() = %v, want sorted [a b c]", names)
	}
	reg.Remove("b")
	if reg.Lookup("b") != nil {
		t.Error("Lookup(b) survived Remove")
	}

	// The nil registry is inert, like the nil Metrics it hands out.
	var nilReg *telemetry.Registry
	if m := nilReg.Get("x"); m != nil {
		t.Error("nil registry Get returned a collector")
	}
	nilReg.Remove("x")
	if names := nilReg.Names(); names != nil {
		t.Errorf("nil registry Names() = %v", names)
	}
	nilReg.Get("x").Sequence(3) // must not panic
}

func TestRegistryAggregate(t *testing.T) {
	reg := telemetry.NewRegistry()
	for i, scans := range []int{2, 3} {
		m := reg.Get(fmt.Sprintf("job-%d", i))
		m.SetPhase(1)
		for s := 0; s < scans; s++ {
			m.Sequence(10)
			m.ScanDone(100, false)
		}
		m.CheckpointWrite(50, 0)
	}
	agg := reg.Aggregate()
	if agg.TotalScans != 5 {
		t.Errorf("aggregate TotalScans = %d, want 5", agg.TotalScans)
	}
	if agg.TotalSequences != 5 {
		t.Errorf("aggregate TotalSequences = %d, want 5", agg.TotalSequences)
	}
	if agg.TotalBytes != 500 {
		t.Errorf("aggregate TotalBytes = %d, want 500", agg.TotalBytes)
	}
	if agg.CheckpointWrites != 2 || agg.CheckpointBytes != 100 {
		t.Errorf("aggregate checkpoints = (%d, %d), want (2, 100)", agg.CheckpointWrites, agg.CheckpointBytes)
	}

	// A removed collector's counters stay in the aggregate, so a finished
	// job's scans never drop out of a _total series.
	reg.Remove("job-0")
	reg.Remove("job-0")
	if got := reg.Aggregate(); got.TotalScans != 5 || got.CheckpointBytes != 100 {
		t.Errorf("after Remove: aggregate scans %d, checkpoint bytes %d, want 5, 100", got.TotalScans, got.CheckpointBytes)
	}
	reg.Get("job-0").ProbeScan(4)
	if got := reg.Aggregate(); got.TotalScans != 5 || got.Probed != 4 || got.ProbeScans != 1 {
		t.Errorf("after re-Get: aggregate scans %d, probed %d in %d scans, want 5, 4 in 1", got.TotalScans, got.Probed, got.ProbeScans)
	}
}

// TestRegistryAggregateNeverDecreases records and removes collectors from
// several goroutines while the test goroutine aggregates: a collector is
// counted either live or retired, never twice or not at all, so the total
// only rises.
func TestRegistryAggregateNeverDecreases(t *testing.T) {
	const jobs, scans = 8, 50
	reg := telemetry.NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			m := reg.Get(name)
			m.SetPhase(1)
			for s := 0; s < scans; s++ {
				m.ScanDone(10, false)
			}
			reg.Remove(name)
		}(fmt.Sprintf("job-%d", i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last int64
	for {
		select {
		case <-done:
			if got := reg.Aggregate().TotalScans; got != jobs*scans {
				t.Errorf("final aggregate = %d scans, want %d", got, jobs*scans)
			}
			return
		default:
		}
		got := reg.Aggregate().TotalScans
		if got < last {
			t.Fatalf("aggregate went backwards: %d scans after %d", got, last)
		}
		last = got
	}
}

// noisyWorld builds an in-memory noisy protein database and matrix.
func noisyWorld(t *testing.T, seed int64, n int) (*seqdb.MemDB, *compat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const m = 6
	std, _, err := datagen.Protein(datagen.ProteinConfig{
		N: n, M: m, MinLen: 10, MaxLen: 14,
		Motifs:    []pattern.Pattern{pattern.MustNew(0, 1, 2)},
		PlantProb: 0.7,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := datagen.ApplyUniformNoise(std, m, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compat.UniformNoise(m, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return noisy, c
}

// TestConcurrentMineSharedRegistryAndDB is the serving layer's concurrency
// model in miniature, run under -race in CI: several core.Mine calls share
// one MemDB (read-only scans, safe concurrently) and one telemetry Registry
// (each run its own collector), while each writes checkpoints to its own
// path. All runs must succeed, agree with a sequential rerun of the same
// seed, and the registry aggregate must equal the sum of the parts.
func TestConcurrentMineSharedRegistryAndDB(t *testing.T) {
	const miners = 4
	db, c := noisyWorld(t, testutil.Seed(t), 60)
	reg := telemetry.NewRegistry()
	ckptDir := t.TempDir()

	cfgFor := func(i int, m *telemetry.Metrics, ckpt string) core.Config {
		return core.Config{
			MinMatch:   0.30,
			Delta:      1e-2,
			SampleSize: 30,
			MaxLen:     6,
			Rng:        rand.New(rand.NewSource(int64(i + 1))),
			Metrics:    m,
			Checkpoint: &core.CheckpointPolicy{
				Path: ckpt,
				Seed: int64(i + 1),
			},
		}
	}

	var wg sync.WaitGroup
	results := make([]*core.Result, miners)
	errs := make([]error, miners)
	for i := 0; i < miners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("job-%d", i)
			ckpt := filepath.Join(ckptDir, name+".lckp")
			cfg := cfgFor(i, reg.Get(name), ckpt)
			results[i], errs[i] = core.MineContext(context.Background(), db, c, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("miner %d: %v", i, err)
		}
	}

	// Each concurrent run matches a sequential rerun with the same seed —
	// sharing the database and registry changed nothing.
	for i := 0; i < miners; i++ {
		want, err := core.MineContext(context.Background(), db, c, cfgFor(i, nil, filepath.Join(ckptDir, "rerun.lckp")))
		if err != nil {
			t.Fatalf("sequential rerun %d: %v", i, err)
		}
		// Reports sort deterministically, so they compare directly.
		gotRep, err := core.NewReport(results[i], 0.30, db.Len(), nil)
		if err != nil {
			t.Fatal(err)
		}
		wantRep, err := core.NewReport(want, 0.30, db.Len(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRep.Frequent, wantRep.Frequent) {
			t.Errorf("miner %d: frequent set differs from its sequential rerun", i)
		}
	}

	var sumScans, sumCkptWrites int64
	for _, name := range reg.Names() {
		s := reg.Lookup(name).Snapshot()
		if s.TotalScans < 1 {
			t.Errorf("%s recorded no scans", name)
		}
		if s.CheckpointWrites < 2 {
			t.Errorf("%s recorded %d checkpoint writes, want >= 2 (phase 1 + phase 2)", name, s.CheckpointWrites)
		}
		sumScans += s.TotalScans
		sumCkptWrites += s.CheckpointWrites
	}
	agg := reg.Aggregate()
	if agg.TotalScans != sumScans || agg.CheckpointWrites != sumCkptWrites {
		t.Errorf("aggregate (scans %d, ckpt %d) != sum of parts (%d, %d)",
			agg.TotalScans, agg.CheckpointWrites, sumScans, sumCkptWrites)
	}
	if len(reg.Names()) != miners {
		t.Errorf("registry holds %d collectors, want %d", len(reg.Names()), miners)
	}
}
