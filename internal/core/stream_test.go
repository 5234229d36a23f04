package core

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/compat"
	"repro/internal/pattern"
	"repro/internal/seqdb"
	"repro/internal/stream"
)

func streamTestData(t *testing.T, seed int64, n int) (*compat.Matrix, [][]pattern.Symbol) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, err := compat.UniformNoise(4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	db := make([][]pattern.Symbol, n)
	for i := range db {
		seq := make([]pattern.Symbol, 3+rng.Intn(6))
		for j := range seq {
			seq[j] = pattern.Symbol(rng.Intn(4))
		}
		if rng.Intn(2) == 0 && len(seq) >= 2 {
			seq[0], seq[1] = 1, 2
		}
		db[i] = seq
	}
	return c, db
}

func streamTestConfig(ckpt string) StreamConfig {
	return StreamConfig{
		Config: Config{
			MinMatch:   0.3,
			Delta:      0.1,
			SampleSize: 64,
			MaxLen:     3,
			MaxGap:     1,
			MemBudget:  4,
		},
		Seed:           7,
		CheckpointPath: ckpt,
	}
}

// TestStreamCheckpointResume advances a checkpointed stream over half the
// batches, resumes a second session from the snapshot alone, and runs both
// over the remaining batches in lockstep: every result must be identical —
// the snapshot carries the full incremental state.
func TestStreamCheckpointResume(t *testing.T) {
	c, data := streamTestData(t, 11, 20)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.lsa")
	log, err := seqdb.CreateAppend(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	st, err := NewStream(log, c, streamTestConfig(filepath.Join(dir, "live.lckp")))
	if err != nil {
		t.Fatal(err)
	}
	append4 := func(lo int) {
		for _, seq := range data[lo : lo+4] {
			if _, err := log.Append(seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	append4(0)
	if _, err := st.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
	append4(4)
	if _, err := st.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Resume a second session from the snapshot (same log, fresh handle to
	// mimic a restarted process), then feed both the remaining batches.
	log2, err := seqdb.OpenAppendRead(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	resumed, err := ResumeStream(filepath.Join(dir, "live.lckp"), log2, c, streamTestConfig(filepath.Join(dir, "resumed.lckp")))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Cursor() != st.Cursor() {
		t.Fatalf("resumed cursor %d, live cursor %d", resumed.Cursor(), st.Cursor())
	}
	for lo := 8; lo < len(data); lo += 4 {
		append4(lo)
		a, err := st.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := resumed.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Frequent.Patterns(), b.Frequent.Patterns()) ||
			!reflect.DeepEqual(a.Border.Patterns(), b.Border.Patterns()) {
			t.Fatalf("resumed stream diverged at prefix %d", lo+4)
		}
		if a.Remined != b.Remined || !reflect.DeepEqual(a.SymbolMatch, b.SymbolMatch) {
			t.Fatalf("resumed stream state diverged at prefix %d (remined %v/%v)", lo+4, a.Remined, b.Remined)
		}
		if !reflect.DeepEqual(a.Phase2.Values, b.Phase2.Values) {
			t.Fatalf("resumed stream values diverged at prefix %d", lo+4)
		}
	}
}

// TestStreamResumeCatchesUpOfflineAppends kills a session, appends while it
// is down, and resumes: the first Advance must consume the offline tail and
// match a session that never went down.
func TestStreamResumeCatchesUpOfflineAppends(t *testing.T) {
	c, data := streamTestData(t, 3, 12)
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.lsa")
	log, err := seqdb.CreateAppend(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	ckpt := filepath.Join(dir, "s.lckp")
	st, err := NewStream(log, c, streamTestConfig(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range data[:6] {
		if _, err := log.Append(seq); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}
	// "Crash": drop the session, keep appending to the log.
	for _, seq := range data[6:] {
		if _, err := log.Append(seq); err != nil {
			t.Fatal(err)
		}
	}
	resumed, err := ResumeStream(ckpt, log, c, streamTestConfig(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Advance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != len(data)-6 || res.Total != len(data) {
		t.Fatalf("resume consumed %d of the %d offline appends", res.Appended, len(data)-6)
	}

	// An uninterrupted session over the same batches must agree.
	log2, err := seqdb.CreateAppend(filepath.Join(dir, "ref.lsa"))
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	ref, err := NewStream(log2, c, streamTestConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	var want *pattern.Set
	for _, hi := range []int{6, len(data)} {
		for _, seq := range data[log2.Total():hi] {
			if _, err := log2.Append(seq); err != nil {
				t.Fatal(err)
			}
		}
		r, err := ref.Advance(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want = r.Frequent
	}
	if !reflect.DeepEqual(res.Frequent.Patterns(), want.Patterns()) {
		t.Fatalf("resumed frequent set diverges from the uninterrupted session")
	}
}

// TestStreamResumeRejectsMismatch: a snapshot resumed under a different
// configuration or against a shorter log is refused.
func TestStreamResumeRejectsMismatch(t *testing.T) {
	c, data := streamTestData(t, 5, 8)
	dir := t.TempDir()
	log, err := seqdb.CreateAppend(filepath.Join(dir, "log.lsa"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	ckpt := filepath.Join(dir, "s.lckp")
	st, err := NewStream(log, c, streamTestConfig(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range data {
		if _, err := log.Append(seq); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Advance(context.Background()); err != nil {
		t.Fatal(err)
	}

	bad := streamTestConfig(ckpt)
	bad.MinMatch = 0.5
	if _, err := ResumeStream(ckpt, log, c, bad); err == nil {
		t.Fatal("resume accepted a different MinMatch")
	}
	short, err := seqdb.CreateAppend(filepath.Join(dir, "short.lsa"))
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	if _, err := ResumeStream(ckpt, short, c, streamTestConfig(ckpt)); err == nil {
		t.Fatal("resume accepted a log shorter than the snapshot cursor")
	}
}

// TestResumeSnapshotWithSampleSums resumes testdata/stream-samplesums.lckp,
// a snapshot whose stream section carries the sample sums of its 36 live
// candidates, as stream snapshots once did, beside a Phase 2 section. It
// was written by a session under streamTestConfig after Advances over 40,
// 40 and 20 sequences of streamTestData(5, 180), appended to a log named
// live.lsa in the working directory. The first, idle Advance of the resumed
// session must return the snapshot's mine without re-mining, and the frequent
// set of a session that never stopped; each Advance over the 80 sequences
// that follow must equal that session's, values bit for bit.
func TestResumeSnapshotWithSampleSums(t *testing.T) {
	snapPath, err := filepath.Abs(filepath.Join("testdata", "stream-samplesums.lckp"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil { // the snapshot records the log as live.lsa
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	c, data := streamTestData(t, 5, 180)
	logs := make([]*seqdb.AppendDB, 2)
	for i, name := range []string{"live.lsa", "ref.lsa"} {
		if logs[i], err = seqdb.CreateAppend(name); err != nil {
			t.Fatal(err)
		}
		defer logs[i].Close()
	}
	add := func(seqs [][]pattern.Symbol) {
		for _, log := range logs {
			for _, seq := range seqs {
				if _, err := log.Append(seq); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ref, err := NewStream(logs[1], c, streamTestConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	var want *stream.Result
	for _, lo := range []int{0, 40, 80} {
		add(data[lo:min(lo+40, 100)])
		if want, err = ref.Advance(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	resumed, err := ResumeStream(snapPath, logs[0], c, streamTestConfig(filepath.Join(dir, "resumed.lckp")))
	if err != nil {
		t.Fatalf("resume from a snapshot with sample sums: %v", err)
	}
	got, err := resumed.Advance(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Remined || got.Appended != 0 || !reflect.DeepEqual(got.Phase2.Values, snap.Phase2.Values) {
		t.Fatalf("idle Advance after the resume: remined %v, %d appended, snapshot's mine %v",
			got.Remined, got.Appended, reflect.DeepEqual(got.Phase2.Values, snap.Phase2.Values))
	}
	if !reflect.DeepEqual(got.Frequent.Patterns(), want.Frequent.Patterns()) {
		t.Fatalf("idle Advance after the resume: frequent %v, uninterrupted %v", got.Frequent.Patterns(), want.Frequent.Patterns())
	}
	for lo := 100; lo < len(data); lo += 20 {
		add(data[lo : lo+20])
		if want, err = ref.Advance(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, err = resumed.Advance(context.Background()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Frequent.Patterns(), want.Frequent.Patterns()) ||
			!reflect.DeepEqual(got.Border.Patterns(), want.Border.Patterns()) {
			t.Fatalf("prefix %d: resumed frequent %v, uninterrupted %v", lo+20, got.Frequent.Patterns(), want.Frequent.Patterns())
		}
		if len(got.Phase2.Values) != len(want.Phase2.Values) {
			t.Fatalf("prefix %d: %d candidates, uninterrupted %d", lo+20, len(got.Phase2.Values), len(want.Phase2.Values))
		}
		for key, w := range want.Phase2.Values {
			if g, ok := got.Phase2.Values[key]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("prefix %d: value[%s] = %v, uninterrupted %v", lo+20, key, g, w)
			}
		}
	}
}
