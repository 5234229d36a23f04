package telemetry

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/seqdb"
)

// TestTableCoversSnapshot pins the table to the Snapshot struct: every metric
// field has exactly one entry, whose name is the field's JSON key and whose
// kind matches the field's type, so no metric can be half-added.
func TestTableCoversSnapshot(t *testing.T) {
	exempt := map[string]string{
		"Phases":          "the per-phase block, built from the scan-traffic entries",
		"SequencesPerSec": "derived from total_sequences and total_millis",
		"Retry":           "filled by the orchestrator",
		"Degraded":        "filled by the orchestrator",
	}
	var s Snapshot
	base := reflect.ValueOf(&s).Elem()
	byAddr := make(map[uintptr]reflect.StructField)
	for i := 0; i < base.NumField(); i++ {
		f := base.Type().Field(i)
		if _, ok := exempt[f.Name]; !ok {
			byAddr[base.Field(i).Addr().Pointer()] = f
		}
	}
	for id, e := range &table {
		if e.name == "" || e.help == "" || e.field == nil {
			t.Errorf("ID %d has no complete table entry: %+v", id, e)
			continue
		}
		ptr := e.field(&s)
		f, ok := byAddr[reflect.ValueOf(ptr).Pointer()]
		if !ok {
			t.Errorf("%s: fills no metric field of Snapshot, or one another entry fills", e.name)
			continue
		}
		delete(byAddr, reflect.ValueOf(ptr).Pointer())
		if key, _, _ := strings.Cut(f.Tag.Get("json"), ","); key != e.name {
			t.Errorf("entry %q fills Snapshot.%s, whose JSON key is %q", e.name, f.Name, key)
		}
		var want reflect.Type
		switch e.kind {
		case counter, gauge:
			want = reflect.TypeOf(int64(0))
		case maxGauge:
			want = reflect.TypeOf(int64(0))
			if f.Type.Kind() == reflect.Bool {
				want = f.Type
			}
		case timer:
			want = reflect.TypeOf(float64(0))
		case histogram:
			want = reflect.TypeOf(HistogramSnapshot{})
		}
		if f.Type != want {
			t.Errorf("%s: kind %d fills a %s field", e.name, e.kind, f.Type)
		}
		if hist := ID(id) >= firstHist; hist != (e.kind == histogram) {
			t.Errorf("%s: histogram IDs must sit at and after firstHist (kind %d, ID %d)", e.name, e.kind, id)
		}
		if ID(id) < numPhased && e.kind != counter && e.kind != timer {
			t.Errorf("%s: a per-phase entry must be a counter or a timer", e.name)
		}
	}
	for _, f := range byAddr {
		t.Errorf("Snapshot.%s has no table entry", f.Name)
	}
}

// record touches every table entry with distinct values through the
// recording API.
func record(m *Metrics) {
	m.SetPhase(1)
	m.Sequence(5)
	m.Sequence(7)
	m.ScanDone(96, true)
	m.PhaseTime(1, 1234567*time.Nanosecond)
	m.Set(SampleSize, 12)

	m.SetPhase(2)
	m.LevelEvaluated(3)
	m.LevelEvaluated(9)
	for label, n := range []int{1, 2, 3} {
		for i := 0; i < n; i++ {
			m.Add(Classified(label), 1)
		}
	}
	m.KernelLevel(10, 20, 30, 4096, 2, true)
	m.KernelLevel(1, 2, 3, 1000, 0, false)
	m.GrowthNode(5, 6)
	m.GrowthNode(7, 0)
	m.Add(GrowthProjReused, 3)
	m.Add(GrowthProjBuilt, 4)
	m.Add(GrowthDenied, 5)
	m.Max(GrowthPeakBytes, 777)
	m.Max(GrowthPeakBytes, 500)
	m.Add(GrowthCapFallbacks, 1)
	m.PhaseTime(2, 2500*time.Microsecond)

	m.SetPhase(3)
	m.Sequence(11)
	m.ScanDone(300, false)
	m.ProbeScan(4)
	m.ProbeScan(6)
	m.Observe(ProbeLayers, 2)
	m.Observe(ProbeLayers, 5)
	m.Observe(ProbeLayers, 5)
	m.ShardScan(300*time.Microsecond, 11, 900)
	m.ShardScan(1500*time.Microsecond, 13, -1)
	m.RemoteProbe(700*time.Microsecond, true)
	m.RemoteProbe(90*time.Microsecond, false)
	m.RemoteProbe(40*time.Microsecond, true)
	m.Add(RemoteRetries, 5)
	m.Add(RemoteReassigned, 6)
	m.Add(RemoteHedges, 7)
	m.Add(RemoteHedgesWon, 4)
	m.Add(RemoteShardsLost, 1)
	m.PhaseTime(3, 3333*time.Microsecond+7*time.Nanosecond)

	// Out-of-pipeline traffic is kept in phase 0 and never reported.
	m.SetPhase(0)
	m.Sequence(100)
	m.ScanDone(50, false)

	m.CheckpointWrite(2048, 3*time.Millisecond+456*time.Microsecond)
	m.CheckpointWrite(1024, time.Millisecond)
	m.CheckpointWrite(512, 25*time.Microsecond)
	m.StreamBatch(8, 2, 0, false)
	m.StreamBatch(3, 0, 2, true)
	m.StreamBatch(1, 2, 1, false)
	m.Add(StreamReprobesSaved, 17)
	m.Add(StreamReprobesSaved, 4)
	m.Add(StreamRescored, 20)
	m.Add(StreamRescored, 7)
	m.ResumeHit(2, 3)
	m.Add(SlotsBorrowed, 2)
	m.Add(SlotsBorrowed, 1)
}

// TestSnapshotGolden checks that a recording touching every table entry
// renders JSON byte-identical to testdata/snapshot.golden.json, which was
// captured from the hand-written Metrics this table replaced.
func TestSnapshotGolden(t *testing.T) {
	m := &Metrics{}
	record(m)
	s := m.Snapshot()
	for _, e := range &table {
		zero := false
		switch f := e.field(&s).(type) {
		case *int64:
			zero = *f == 0
		case *bool:
			zero = !*f
		case *float64:
			zero = *f == 0
		case *HistogramSnapshot:
			zero = f.Count == 0
		}
		if zero {
			t.Errorf("the recording leaves %s at zero", e.name)
		}
	}
	s.Retry = seqdb.ScanStats{Completed: 4, Attempts: 6, Retries: 2, Transient: 2}
	s.Degraded = true
	var got bytes.Buffer
	if err := s.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/snapshot.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("snapshot JSON differs from the golden file:\n%s", got.String())
	}
}

// TestWritePrometheus checks every counter is exported with its HELP and
// TYPE lines, under the series names /metrics has always used where they
// predate the table.
func TestWritePrometheus(t *testing.T) {
	m := &Metrics{}
	record(m)
	var out strings.Builder
	if err := m.Snapshot().WritePrometheus(&out, "lspserve"); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# TYPE lspserve_scans_total counter\nlspserve_scans_total 2\n",
		"lspserve_scan_sequences_total 3\n",
		"lspserve_checkpoint_writes_total 3\n",
		"lspserve_checkpoint_bytes_total 3584\n",
		"# HELP lspserve_growth_nodes_total DFS nodes the growth engine expanded.\n",
		"lspserve_phase3_remote_hedges_total 7\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	counters := 0
	for _, e := range &table {
		if e.kind == counter {
			counters++
		}
	}
	if got := strings.Count(text, " counter\n"); got != counters {
		t.Errorf("%d counter series, want %d", got, counters)
	}
	if strings.Contains(text, "sample_size") || strings.Contains(text, "millis") {
		t.Errorf("gauges or timers exported as counters:\n%s", text)
	}
}
