package telemetry

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pattern"
	"repro/internal/seqdb"
)

func TestNilMetricsIsSafe(t *testing.T) {
	var m *Metrics
	m.SetPhase(1)
	m.Sequence(10)
	m.ScanDone(100, true)
	m.PhaseTime(1, time.Second)
	m.Set(SampleSize, 5)
	m.LevelEvaluated(7)
	m.Add(Classified(2), 1)
	m.Max(KernelPeakBytes, 9)
	m.ProbeScan(3)
	m.Observe(ProbeLayers, 4)
	s := m.Snapshot()
	if s.TotalSequences != 0 || s.TotalScans != 0 {
		t.Errorf("nil snapshot not zero: %+v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 100, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Max != 100 {
		t.Errorf("max = %d", s.Max)
	}
	if s.Sum != 111 { // -5 clamps to 0
		t.Errorf("sum = %d", s.Sum)
	}
	// 0 and -5 land in le_0; the two 1s in le_1; 2 and 3 in le_3; 4 in le_7;
	// 100 in le_127.
	want := map[string]int64{"le_0": 2, "le_1": 2, "le_3": 2, "le_7": 1, "le_127": 1}
	for k, n := range want {
		if s.Buckets[k] != n {
			t.Errorf("bucket %s = %d, want %d (all: %v)", k, s.Buckets[k], n, s.Buckets)
		}
	}
}

func TestGaugeSetMax(t *testing.T) {
	m := &Metrics{}
	m.Max(GrowthPeakBytes, 5)
	m.Max(GrowthPeakBytes, 3)
	if got := m.Snapshot().GrowthPeakBytes; got != 5 {
		t.Errorf("max gauge = %d", got)
	}
	m.Max(GrowthPeakBytes, 9)
	m.Set(SampleSize, 7)
	m.Set(SampleSize, 4)
	if s := m.Snapshot(); s.GrowthPeakBytes != 9 || s.SampleSize != 4 {
		t.Errorf("max gauge = %d, set gauge = %d", s.GrowthPeakBytes, s.SampleSize)
	}
}

func testDB(n, l int) *seqdb.MemDB {
	db := seqdb.NewMemDB(nil)
	for i := 0; i < n; i++ {
		seq := make([]pattern.Symbol, l)
		for j := range seq {
			seq[j] = pattern.Symbol(j % 3)
		}
		db.Append(seq)
	}
	return db
}

func TestScannerAttributesTrafficToPhases(t *testing.T) {
	m := &Metrics{}
	db := NewScanner(testDB(10, 7), m)

	m.SetPhase(1)
	if err := db.Scan(func(int, []pattern.Symbol) error { return nil }); err != nil {
		t.Fatal(err)
	}
	m.SetPhase(3)
	for i := 0; i < 2; i++ {
		if err := db.Scan(func(int, []pattern.Symbol) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	m.PhaseTime(1, 50*time.Millisecond)

	s := m.Snapshot()
	p1, p3 := s.Phases[0], s.Phases[2]
	if p1.Sequences != 10 || p1.Symbols != 70 || p1.Scans != 1 {
		t.Errorf("phase1 = %+v", p1)
	}
	if p1.Bytes != 4*70 || !s.BytesEstimated {
		t.Errorf("phase1 bytes = %d (estimated=%v)", p1.Bytes, s.BytesEstimated)
	}
	if p3.Sequences != 20 || p3.Scans != 2 {
		t.Errorf("phase3 = %+v", p3)
	}
	if s.TotalScans != 3 || s.TotalSequences != 30 {
		t.Errorf("totals = %d scans, %d sequences", s.TotalScans, s.TotalSequences)
	}
	if p1.SequencesPerSec == 0 {
		t.Error("phase1 seq/s not derived from PhaseTime")
	}
	if db.Scans() != 3 {
		t.Errorf("inner scans = %d", db.Scans())
	}
}

func TestScannerReportsRealDiskBytes(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.lsq"
	if err := seqdb.WriteFile(path, testDB(5, 9)); err != nil {
		t.Fatal(err)
	}
	disk, err := seqdb.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := &Metrics{}
	db := NewScanner(disk, m)
	m.SetPhase(1)
	if err := db.Scan(func(int, []pattern.Symbol) error { return nil }); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if s.BytesEstimated {
		t.Error("disk bytes should not be estimated")
	}
	if s.Phases[0].Bytes == 0 {
		t.Error("no bytes recorded for disk scan")
	}
}

// flaky fails its first pass attempt with a transient-looking error.
type flaky struct {
	*seqdb.MemDB
	failed bool
}

var errFlaky = errors.New("flaky: transient")

func (f *flaky) Scan(fn func(id int, seq []pattern.Symbol) error) error {
	return f.ScanContext(nil, fn)
}

// ScanContext must be overridden too: seqdb.ScanContext dispatches through
// the ContextScanner interface, which the embedded MemDB would satisfy.
func (f *flaky) ScanContext(ctx context.Context, fn func(id int, seq []pattern.Symbol) error) error {
	if !f.failed {
		f.failed = true
		// Deliver one sequence, then die mid-pass.
		first := true
		return f.MemDB.ScanContext(ctx, func(id int, seq []pattern.Symbol) error {
			if !first {
				return errFlaky
			}
			first = false
			return fn(id, seq)
		})
	}
	return f.MemDB.ScanContext(ctx, fn)
}

func TestScannerForwardsPassProtocolAndStats(t *testing.T) {
	inner := &flaky{MemDB: testDB(4, 3)}
	retry := &seqdb.RetryScanner{
		Inner:    inner,
		Sleep:    func(time.Duration) {},
		Classify: func(error) bool { return true },
	}
	m := &Metrics{}
	db := NewScanner(retry, m)
	m.SetPhase(1)

	setups := 0
	delivered := 0
	err := seqdb.ScanPassContext(nil, db, func() (func(id int, seq []pattern.Symbol) error, error) {
		setups++
		delivered = 0
		return func(int, []pattern.Symbol) error { delivered++; return nil }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if setups != 2 {
		t.Errorf("setup invoked %d times, want 2 (retry must rebuild state through the wrapper)", setups)
	}
	if delivered != 4 {
		t.Errorf("final attempt delivered %d", delivered)
	}
	s := m.Snapshot()
	// 1 sequence from the failed attempt + 4 from the good one.
	if s.Phases[0].Sequences != 5 {
		t.Errorf("sequences = %d, want 5 (failed attempt traffic counts)", s.Phases[0].Sequences)
	}
	if s.Phases[0].Scans != 1 {
		t.Errorf("scans = %d, want 1 (only completed passes)", s.Phases[0].Scans)
	}
	st := db.ScanStats()
	if st.Attempts != 2 || st.Retries != 1 {
		t.Errorf("stats not forwarded: %+v", st)
	}
}

func TestSnapshotConcurrentWithRecording(t *testing.T) {
	m := &Metrics{}
	m.SetPhase(1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				m.Sequence(10)
				m.Add(Classified(i%3), 1)
				m.ProbeScan(1 + i%50)
				m.Observe(ProbeLayers, int64(i%8))
				m.LevelEvaluated(i % 100)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		_ = m.Snapshot()
		m.SetPhase(1 + i%3)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.TotalSequences == 0 || s.Probed == 0 {
		t.Errorf("no traffic recorded: %+v", s)
	}
}

func TestSnapshotRendering(t *testing.T) {
	m := &Metrics{}
	m.SetPhase(1)
	m.Sequence(5)
	m.ScanDone(20, true)
	m.PhaseTime(1, time.Millisecond)
	m.Set(SampleSize, 1)
	m.LevelEvaluated(3)
	m.Add(Classified(1), 1)
	m.SetPhase(3)
	m.ProbeScan(3)
	m.Observe(ProbeLayers, 2)
	s := m.Snapshot()

	var jsonBuf, textBuf strings.Builder
	if err := s.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"total_scans": 1`, `"probe_scans": 1`, `"sequences_per_sec"`} {
		if !strings.Contains(jsonBuf.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, jsonBuf.String())
		}
	}
	if err := s.WriteText(&textBuf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"telemetry:", "phase 1: 1 scans", "classified_ambiguous", "probe_layers"} {
		if !strings.Contains(textBuf.String(), want) {
			t.Errorf("text rendering missing %q:\n%s", want, textBuf.String())
		}
	}
	if strings.Contains(textBuf.String(), "classified_frequent") {
		t.Errorf("text rendering shows a zero metric:\n%s", textBuf.String())
	}
}
