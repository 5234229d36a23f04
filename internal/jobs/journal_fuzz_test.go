package jobs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/seqdb"
)

// FuzzJournalReplay replays a journal holding arbitrary bytes as the record
// jobs/fuzz.json beside one valid queued record, with startup compaction on
// and a database opener that fails at once: NewManager must neither panic
// nor hang, every job it lists must settle within a deadline, the valid
// record must still be listed, and Shutdown must return. The corpus seeds
// a valid queued record, a running record, one naming the retired implicit
// finalizer, a running one naming the retired sweep engine, torn JSON, an
// ID that does not match the file name and an unknown state.
func FuzzJournalReplay(f *testing.F) {
	spec := Spec{DB: "db.lsq", Matrix: "m.txt", MinMatch: 0.2, MaxLen: 4}
	if err := spec.Normalize(); err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(record{ID: "valid", Spec: spec, State: StateQueued, SubmittedMs: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range map[string][]byte{"valid.json": valid, "fuzz.json": data} {
			if err := os.WriteFile(filepath.Join(dir, "jobs", name), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opened := make(chan *Manager, 1)
		go func() {
			m, err := NewManager(Options{Dir: dir, WorkerSlots: 1, CompactRetain: 1,
				OpenDB: func(Spec) (seqdb.Scanner, error) { return nil, os.ErrNotExist }})
			if err != nil {
				t.Errorf("NewManager: %v", err)
			}
			opened <- m
		}()
		var m *Manager
		select {
		case m = <-opened:
		case <-time.After(10 * time.Second):
			t.Fatal("NewManager hung replaying the journal")
		}
		if m == nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		listedValid := false
		for _, st := range m.List() {
			listedValid = listedValid || st.ID == "valid"
			if _, err := m.Wait(ctx, st.ID); err != nil {
				t.Fatalf("job %s (state %s) did not settle: %v", st.ID, st.State, err)
			}
		}
		if !listedValid {
			t.Fatal("the valid record is not listed")
		}
		if err := m.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	})
}
