package miner

import (
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// TestParallelValuerBitwiseDeterministic pins the parallel gather to the
// inline one with exact float equality (not a tolerance): each probe block
// is summed in position order by one worker and blocks fold in ascending
// order, so float rounding is identical regardless of the worker count. A
// tolerance here would mask scheduling bugs that shuffle accumulation
// order.
func TestParallelValuerBitwiseDeterministic(t *testing.T) {
	db, c, ps := randomWorkload(t, 9, 250, 35)
	ref, err := MatchDBValuer(db, c)(ps)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 3; trial++ {
			got, err := ParallelMatchDBValuer(db, c, workers)(ps)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d trial=%d pattern %d: %v != %v (not bit-identical)",
						workers, trial, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestParallelValuerWithTelemetryRace drives the parallel gather through a
// telemetry-wrapped scanner while other goroutines snapshot the metrics —
// the exact concurrency shape of a Phase 3 probe scan with a progress
// reporter attached. Run under -race (CI does) this proves the per-sequence
// counters are safe against both the worker fan-out and concurrent readers;
// the final snapshot is then checked for lost updates.
func TestParallelValuerWithTelemetryRace(t *testing.T) {
	db, c, ps := randomWorkload(t, 10, 120, 20)
	m := &telemetry.Metrics{}
	m.SetPhase(3)
	wrapped := telemetry.NewScanner(db, m)
	valuer := ParallelMatchDBValuer(wrapped, c, 8)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.Snapshot()
				}
			}
		}()
	}

	const scans = 5
	want, err := MatchDBValuer(db, c)(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < scans; i++ {
		got, err := valuer(ps)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("scan %d pattern %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}
	close(stop)
	wg.Wait()

	snap := m.Snapshot()
	if snap.TotalSequences != int64(scans*db.Len()) {
		t.Errorf("TotalSequences=%d, want %d (lost per-sequence updates?)",
			snap.TotalSequences, scans*db.Len())
	}
	if got := snap.Phases[2].Scans; got != scans {
		t.Errorf("phase 3 scans=%d, want %d", got, scans)
	}
}
