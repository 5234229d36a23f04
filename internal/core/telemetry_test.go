package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestMineTelemetryAgreesWithResult(t *testing.T) {
	db, c := noisyProteinDB(t, 11, 80, 0.1)
	m := &telemetry.Metrics{}
	res, err := Mine(db, c, Config{
		MinMatch:   0.15,
		SampleSize: 30,
		MaxLen:     3,
		MaxGap:     0,
		MemBudget:  10,
		Finalizer:  BorderCollapsing,
		Rng:        rand.New(rand.NewSource(12)),
		Metrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != m {
		t.Fatal("Result.Telemetry does not carry the configured collector")
	}
	snap := m.Snapshot()

	// The counters the paper cares about must agree with Result exactly.
	if snap.TotalScans != int64(res.Scans) {
		t.Errorf("telemetry TotalScans=%d, Result.Scans=%d", snap.TotalScans, res.Scans)
	}
	if snap.SampleSize != int64(res.SampleSize) {
		t.Errorf("telemetry SampleSize=%d, Result.SampleSize=%d", snap.SampleSize, res.SampleSize)
	}
	if snap.Phases[0].Scans != 1 {
		t.Errorf("phase 1 scans=%d, want 1", snap.Phases[0].Scans)
	}
	if snap.Phases[0].Sequences != int64(db.Len()) {
		t.Errorf("phase 1 sequences=%d, want %d", snap.Phases[0].Sequences, db.Len())
	}
	if snap.Phases[1].Scans != 0 {
		t.Errorf("phase 2 scans=%d, want 0 (sample mining is in-memory)", snap.Phases[1].Scans)
	}
	if res.Phase3 != nil {
		if snap.Phases[2].Scans != int64(res.Phase3.Scans) {
			t.Errorf("phase 3 scans=%d, Result=%d", snap.Phases[2].Scans, res.Phase3.Scans)
		}
		if snap.Probed != int64(res.Phase3.Probed) {
			t.Errorf("telemetry Probed=%d, Result=%d", snap.Probed, res.Phase3.Probed)
		}
		if snap.ProbeScans != int64(res.Phase3.Scans) {
			t.Errorf("ProbeScans=%d, Result=%d", snap.ProbeScans, res.Phase3.Scans)
		}
	}
	if got, want := len(snap.Phases), 3; got != want {
		t.Fatalf("phases=%d", got)
	}
	if snap.Levels != int64(len(res.Phase2.CandidatesPerLevel)) {
		t.Errorf("telemetry Levels=%d, CandidatesPerLevel has %d entries",
			snap.Levels, len(res.Phase2.CandidatesPerLevel))
	}
	var cands, peak int64
	for _, n := range res.Phase2.CandidatesPerLevel {
		cands += int64(n)
		if int64(n) > peak {
			peak = int64(n)
		}
	}
	if snap.Candidates != cands || snap.PeakCandidates != peak {
		t.Errorf("telemetry candidates=%d/peak=%d, Result=%d/%d",
			snap.Candidates, snap.PeakCandidates, cands, peak)
	}
	if total := snap.Frequent + snap.Ambiguous + snap.Infrequent; total != cands {
		t.Errorf("label tallies sum to %d, %d candidates classified", total, cands)
	}
}

func TestReportEmbedsTelemetry(t *testing.T) {
	db, c := noisyProteinDB(t, 11, 80, 0.1)
	m := &telemetry.Metrics{}
	res, err := Mine(db, c, Config{
		MinMatch:   0.15,
		SampleSize: 30,
		MaxLen:     3,
		MemBudget:  10,
		Rng:        rand.New(rand.NewSource(12)),
		Metrics:    m,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReport(res, 0.15, db.Len(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Telemetry == nil {
		t.Fatal("report dropped the telemetry snapshot")
	}
	if rep.Telemetry.TotalScans != int64(res.Scans) {
		t.Errorf("report telemetry scans=%d, want %d", rep.Telemetry.TotalScans, res.Scans)
	}
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"telemetry"`) {
		t.Error("JSON report missing telemetry object")
	}

	// Without a collector the report omits the object entirely.
	res2, err := Mine(db, c, Config{
		MinMatch:   0.15,
		SampleSize: 30,
		MaxLen:     3,
		MemBudget:  10,
		Rng:        rand.New(rand.NewSource(12)),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := NewReport(res2, 0.15, db.Len(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Telemetry != nil {
		t.Error("report invented a telemetry snapshot for an uninstrumented run")
	}
	var sb2 strings.Builder
	if err := rep2.WriteJSON(&sb2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb2.String(), `"telemetry"`) {
		t.Error("JSON report contains telemetry despite nil collector")
	}
}
