package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/seqdb"
)

// FuzzSubmitJob posts arbitrary bodies to POST /v1/jobs through the real
// handler over a temporary manager whose database opener fails at once:
// nothing may panic, every non-2xx response must be a JSON body with a
// non-empty error, a rejected spec must leave no journal record, and the
// spec a 202 echoes must normalize to itself after a JSON round trip, so
// resubmitting it runs the same job. The corpus seeds a valid spec, an
// unknown field, max_candidates -1 and delta 1; the oversized body, a spec
// past the handler's 1 MiB limit, is built here rather than committed.
func FuzzSubmitJob(f *testing.F) {
	f.Add([]byte(`{"db":"` + strings.Repeat("a", 1<<20) + `","matrix":"m.txt","min_match":0.2,"max_len":4}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		m, err := NewManager(Options{Dir: dir,
			OpenDB: func(Spec) (seqdb.Scanner, error) { return nil, os.ErrNotExist }})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Shutdown(context.Background())
		s := &Server{Manager: m}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))

		if rec.Code/100 == 2 {
			var st Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("status %d with an undecodable body %q: %v", rec.Code, rec.Body.String(), err)
			}
			data, err := json.Marshal(st.Spec)
			if err != nil {
				t.Fatal(err)
			}
			var again Spec
			if err := json.Unmarshal(data, &again); err != nil {
				t.Fatal(err)
			}
			if err := again.Normalize(); err != nil {
				t.Fatalf("echoed spec %s no longer validates: %v", data, err)
			}
			if !reflect.DeepEqual(again, st.Spec) {
				t.Fatalf("echoed spec %s resubmits as %+v, want %+v", data, again, st.Spec)
			}
			return
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Fatalf("status %d without a JSON error: %q", rec.Code, rec.Body.String())
		}
		if jobs := m.List(); len(jobs) != 0 {
			t.Fatalf("rejected spec (status %d) left %d jobs", rec.Code, len(jobs))
		}
		if recs, _ := filepath.Glob(filepath.Join(dir, "jobs", "*.json")); len(recs) != 0 {
			t.Fatalf("rejected spec (status %d) left journal records %v", rec.Code, recs)
		}
	})
}
