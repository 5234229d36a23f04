package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/seqdb"
	"repro/internal/telemetry"
)

// TestMinePhase3ShardsMatchSequential: mining a view-sharded store at any
// shard and worker count must reproduce the unsharded pipeline's frequent
// set and logical scan count.
func TestMinePhase3ShardsMatchSequential(t *testing.T) {
	db, c := noisyProteinDB(t, 15, 80, 0.15)
	run := func(store seqdb.Scanner, workers int) *Result {
		res, err := Mine(store, c, Config{
			MinMatch: 0.1, SampleSize: 20, MaxLen: 4, MaxGap: 0,
			MemBudget: 30, Workers: workers,
			Rng: rand.New(rand.NewSource(16)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(db, 0)
	for _, shards := range []int{2, 3, 8} {
		for _, workers := range []int{0, 2} {
			sharded := run(seqdb.ShardScanner(db, shards), workers)
			setsEqual(t, sharded.Frequent, seq.Frequent, "sharded vs sequential")
			if sharded.Scans != seq.Scans {
				t.Errorf("shards=%d workers=%d: %d scans vs %d", shards, workers, sharded.Scans, seq.Scans)
			}
		}
	}
}

// TestMineShardSetUsesScatterGather: mining a native multi-file shard set
// probes it shard by shard (shard telemetry populated, real byte counts) and
// agrees with the in-memory run.
func TestMineShardSetUsesScatterGather(t *testing.T) {
	mem, c := noisyProteinDB(t, 15, 80, 0.15)
	base := filepath.Join(t.TempDir(), "db")
	paths, err := seqdb.WriteShardFiles(mem, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := seqdb.OpenShardSet(paths)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		MinMatch: 0.1, SampleSize: 20, MaxLen: 4, MaxGap: 0,
		MemBudget: 30, Metrics: &telemetry.Metrics{},
		Rng: rand.New(rand.NewSource(16)),
	}
	res, err := Mine(sh, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Mine(mem, c, Config{
		MinMatch: 0.1, SampleSize: 20, MaxLen: 4, MaxGap: 0,
		MemBudget: 30, Rng: rand.New(rand.NewSource(16)),
	})
	if err != nil {
		t.Fatal(err)
	}
	setsEqual(t, res.Frequent, ref.Frequent, "shard set vs memory")
	snap := cfg.Metrics.Snapshot()
	if res.Phase3 != nil && res.Phase3.Scans > 0 {
		if snap.ShardScans == 0 {
			t.Errorf("no shard scans recorded; the shard set was not probed shard by shard")
		}
		if snap.ShardBytes == 0 {
			t.Errorf("shard scans over disk shards reported no real bytes")
		}
		if snap.BytesEstimated {
			t.Errorf("bytes_estimated=true for an all-disk shard set")
		}
	}
}
